package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"excovery/internal/core"
	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/master"
	"excovery/internal/metrics"
	"excovery/internal/netem"
	"excovery/internal/noderpc"
	"excovery/internal/sched"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// campaign is the measurement of one whole campaign.
type campaign struct {
	// setup is core.New (emulated) or the deployment coming up (rpc).
	setup time.Duration
	// total runs from the start of set-up until the level-3 file is saved.
	total time.Duration
	// finalize is conditioning plus level-3 ingest plus Save.
	finalize time.Duration
	// report is OpenExperimentDB plus metrics.FromDB on the saved file.
	report time.Duration
	// runs are the wall intervals between consecutive OnRunDone callbacks
	// (the first starts when the run loop starts).
	runs    []time.Duration
	heapMiB float64
}

// session runs the campaigns of one invocation and accumulates the output
// checks across them.
type session struct {
	cfg       config
	n         int    // campaigns started, names their directories
	digest    string // SHA-256 of the first level-3 file
	attempted int
	failed    int
	err       error // first failed output check
}

func newSession(cfg config) *session { return &session{cfg: cfg} }

func (s *session) runs() int {
	if s.cfg.runs > 0 {
		return s.cfg.runs
	}
	return s.cfg.w.runs
}

// fail records a failed output check; the invocation reports correct=false.
func (s *session) fail(err error) {
	fmt.Fprintln(s.cfg.log, "campaignbench: check failed:", err)
	if s.err == nil {
		s.err = err
	}
}

// platform is one assembled deployment, ready to run its campaign.
type platform struct {
	run      func() (*master.Report, error)
	finalize func() (*store.ExperimentDB, error)
	// close releases the deployment; netStats is valid after it.
	close    func() error
	netStats func() netem.Stats
}

// assemble builds the workload's deployment with its level-2 store and
// journal in storeDir. A nil probe leaves every registry nil, which is the
// program's uninstrumented, allocation-free path.
func (s *session) assemble(e *desc.Experiment, storeDir string, onRun func(desc.Run, master.RunResult), p *probe) (*platform, error) {
	if s.cfg.w.rpc {
		return s.deploy(e, storeDir, onRun, p)
	}
	opts := core.Options{Seed: s.cfg.seed, Node: s.cfg.w.node,
		StoreDir: storeDir, Journal: true, OnRunDone: onRun}
	if p != nil {
		opts.Metrics = p.reg
	}
	x, err := core.New(e, opts)
	if err != nil {
		return nil, err
	}
	return &platform{run: x.Run, finalize: x.Finalize, close: x.Close, netStats: x.Net.Stats}, nil
}

// deploy brings up the Fig. 12 deployment in one process, wired like
// `excovery-node` plus `excovery-master -store -db -fanout 2` without a
// lease: a node host on a real-time scheduler behind a loopback XML-RPC
// endpoint, and a master on its own real-time scheduler that drives the
// host's nodes through retrying RemoteNode proxies and receives the
// forwarded events on its own endpoint.
func (s *session) deploy(e *desc.Experiment, storeDir string, onRun func(desc.Run, master.RunResult), p *probe) (pl *platform, err error) {
	var stops []func() error
	stopAll := func() error {
		var first error
		for i := len(stops) - 1; i >= 0; i-- {
			if err := stops[i](); err != nil && first == nil {
				first = err
			}
		}
		stops = nil
		return first
	}
	defer func() {
		if err != nil {
			stopAll()
		}
	}()

	var host *noderpc.Host
	hopts := core.Options{RealTime: true, Speed: rpcSpeed, Seed: s.cfg.seed,
		OnEvent: func(ev eventlog.Event) { host.ForwardEvent(ev) }}
	if p != nil {
		hopts.Metrics = p.reg
	}
	x, err := core.New(e, hopts)
	if err != nil {
		return nil, err
	}
	host = noderpc.NewHost(x)
	if p != nil {
		// As excovery-node does: one registry for the whole host process.
		host.Instrument(p.reg)
	}
	x.S.SetKeepAlive(true)
	hostDone := make(chan error, 1)
	go func() { hostDone <- x.S.Run() }()
	stops = append(stops, func() error {
		host.Close()
		x.S.Stop()
		if err := <-hostDone; !errors.Is(err, sched.ErrStopped) {
			return err
		}
		return nil
	})
	hostURL, stopHost, err := serve(host.Server())
	if err != nil {
		return nil, err
	}
	stops = append(stops, stopHost)

	ms := sched.New(sched.RealTime, time.Unix(0, 0))
	ms.SetSpeed(rpcSpeed)
	bus := eventlog.NewBus(ms)
	if p != nil {
		bus.Instrument(p.mreg)
	}
	masterURL, stopMaster, err := serve(noderpc.MasterServer(ms, bus))
	if err != nil {
		return nil, err
	}
	stops = append(stops, stopMaster)

	hc := xmlrpc.NewClient(hostURL)
	if _, err := hc.Call("host.set_master", masterURL); err != nil {
		return nil, fmt.Errorf("host.set_master: %w", err)
	}
	ids, err := noderpc.FetchNodes(hc, 5, 500*time.Millisecond)
	if err != nil {
		return nil, err
	}
	// The master CLI's default control-channel policy.
	policy := xmlrpc.RetryPolicy{MaxAttempts: 4, BaseBackoff: 50 * time.Millisecond,
		MaxBackoff: 2 * time.Second, Timeout: 30 * time.Second, Seed: 1}
	dial := func() *xmlrpc.Client {
		c := xmlrpc.NewRetryingClient(hostURL, policy)
		p.watchClient(c)
		return c
	}
	handles := map[string]master.NodeHandle{}
	for _, id := range ids {
		handles[id] = p.wrap(&noderpc.RemoteNode{NodeID: id, C: dial()})
	}
	st, err := store.NewRunStore(storeDir)
	if err != nil {
		return nil, err
	}
	jnl, err := store.OpenJournal(storeDir)
	if err != nil {
		return nil, err
	}
	stops = append(stops, jnl.Close)
	m, err := master.New(master.Config{
		Exp: e, S: ms, Bus: bus, Nodes: handles, Fanout: 2,
		Env: &noderpc.RemoteEnv{C: dial()}, Store: st, Journal: jnl,
		Retry:     master.RetryPolicy{MaxAttempts: 1, QuarantineAfter: 3},
		OnRunDone: onRun, Metrics: p.masterRegistry(),
	})
	if err != nil {
		return nil, err
	}
	return &platform{
		run: func() (*master.Report, error) {
			var rep *master.Report
			var runErr error
			ms.Go("experimaster", func() { rep, runErr = m.RunAll() })
			if err := ms.Run(); err != nil {
				return nil, err
			}
			return rep, runErr
		},
		finalize: m.Finalize,
		close:    stopAll,
		netStats: x.Net.Stats,
	}, nil
}

// serve exposes h on a loopback port until the returned stop is called.
func serve(h http.Handler) (url string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() error {
		err := srv.Close()
		<-done
		return err
	}, nil
}

// setupOnly times one set-up of the workload's deployment and tears it
// down without running the campaign.
func (s *session) setupOnly() (time.Duration, error) {
	s.n++
	dir := filepath.Join(s.cfg.scratch, fmt.Sprintf("setup-%d", s.n))
	defer os.RemoveAll(dir)
	e := s.cfg.w.describe(s.runs())
	start := wallNow()
	pl, err := s.assemble(e, filepath.Join(dir, "store"), nil, nil)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	return d, pl.close()
}

// campaign runs one whole campaign in a fresh directory: set-up, the
// closed-loop run sequence (the master starts run N+1 only after run N
// completed), Finalize, Save, then the report read path on the saved file,
// followed by the output checks. With a probe, spans and layer counts are
// recorded and the campaign's artifacts are kept for the layer replays.
func (s *session) campaign(p *probe) (*campaign, error) {
	s.n++
	dir := filepath.Join(s.cfg.scratch, fmt.Sprintf("campaign-%d", s.n))
	if p == nil {
		defer os.RemoveAll(dir)
	}
	return s.campaignIn(dir, p)
}

func (s *session) campaignIn(dir string, p *probe) (*campaign, error) {
	e := s.cfg.w.describe(s.runs())
	storeDir := filepath.Join(dir, "store")
	path := filepath.Join(dir, "level3.xcdb")
	c := &campaign{}
	var last time.Time
	onRun := func(run desc.Run, rr master.RunResult) {
		now := wallNow()
		c.runs = append(c.runs, now.Sub(last))
		last = now
		p.runDone()
	}

	// Every campaign starts from a collected heap, as in a fresh
	// excovery-run process, so the previous campaign's garbage is not
	// charged to it.
	runtime.GC()
	cspan := p.openCampaign(s.cfg.w.name)
	defer p.end(cspan)
	start := wallNow()
	sp := p.begin(cspan, "setup", "setup")
	pl, err := s.assemble(e, storeDir, onRun, p)
	c.setup = time.Since(start)
	p.end(sp)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	closed := false
	defer func() {
		if !closed {
			pl.close()
		}
	}()

	p.startRuns(cspan)
	last = wallNow()
	rep, err := pl.run()
	p.stopRuns()
	if err != nil {
		return nil, fmt.Errorf("run: %w", err)
	}
	fin := wallNow()
	sp = p.begin(cspan, "finalize", "finalize")
	db, err := pl.finalize()
	p.end(sp)
	if err != nil {
		return nil, fmt.Errorf("finalize: %w", err)
	}
	cond := time.Since(fin)
	sp = p.begin(cspan, "save", "save")
	err = db.Save(path)
	p.end(sp)
	if err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	c.total = time.Since(start)
	c.finalize = time.Since(fin)
	closed = true
	if err := pl.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	// Live heap while the level-3 database is still held.
	runtime.GC()
	var mst runtime.MemStats
	runtime.ReadMemStats(&mst)
	c.heapMiB = float64(mst.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(db)
	if p == nil {
		// Like excovery-report, the read path runs without the database
		// Finalize returned; only the traced run keeps it for reldb.
		db = nil
	}

	// The excovery-report read path.
	rt := wallNow()
	sp = p.begin(cspan, "report", "report")
	rdb, err := store.OpenExperimentDB(path)
	open := time.Since(rt)
	var fromDB []metrics.RunMetric
	if err == nil {
		fromDB, err = metrics.FromDB(rdb, "", "")
	}
	c.report = time.Since(rt)
	p.end(sp)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}

	s.attempted += len(rep.Plan.Runs)
	s.failed += len(rep.Plan.Runs) - rep.Completed
	for _, rr := range rep.Results {
		if rr.Err != nil || rr.Aborted {
			fmt.Fprintf(s.cfg.log, "campaignbench: run %d failed (aborted=%v attempts=%d): %v\n",
				rr.Run.ID, rr.Aborted, rr.Attempts, rr.Err)
		}
	}
	unrun, err := verify(e, rep, rdb, fromDB, s.cfg.w.rpc)
	if err != nil {
		s.fail(err)
	}
	digest, err := fileDigest(path)
	if err != nil {
		return nil, err
	}
	if err := s.checkDigest(digest); err != nil {
		s.fail(err)
	}
	p.keep(kept{e: e, rep: rep, fresh: db, dir: dir, storeDir: storeDir, path: path,
		condition: cond, save: c.finalize - cond, open: open, net: pl.netStats(), unrun: unrun})
	return c, nil
}

// checkDigest holds every level-3 file of a session to the first one: at
// one seed a campaign must produce the same bytes every time.
func (s *session) checkDigest(digest string) error {
	if !s.cfg.w.deterministic() {
		return nil
	}
	if s.digest == "" {
		s.digest = digest
		return nil
	}
	if digest != s.digest {
		return fmt.Errorf("level-3 digest %s differs from the first campaign's %s at seed %d",
			digest[:12], s.digest[:12], s.cfg.seed)
	}
	return nil
}

func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
