package main

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"excovery/internal/desc"
	"excovery/internal/eventlog"
	"excovery/internal/master"
	"excovery/internal/netem"
	"excovery/internal/noderpc"
	"excovery/internal/obs"
	"excovery/internal/store"
	"excovery/internal/xmlrpc"
)

// probe instruments one traced campaign: spans from the benchmark's own
// code on a wall-clock tracer, counts from registries handed to the
// program through its public options, and per-call timings of the
// control channel. Every method is safe on a nil *probe, which is the
// untraced path.
type probe struct {
	tr   *obs.Tracer
	root uint64 // the workload span
	// reg receives the emulator side (Options.Metrics); mreg the master
	// side. They are one registry on the emulated platform and two on the
	// rpc deployment, where they mirror the two processes.
	reg, mreg *obs.Registry

	campaign uint64        // open campaign span, parent of the run spans
	runSpan  atomic.Uint64 // open run span, parent of per-RPC spans
	runIdx   int

	mu      sync.Mutex
	clients []*xmlrpc.Client
	calls   map[string]*callStat

	kept kept
}

// callStat accumulates the wall time of one control-channel call type.
type callStat struct {
	n     int
	total time.Duration
}

// kept holds what a traced campaign leaves for the layer replays.
type kept struct {
	e         *desc.Experiment
	rep       *master.Report
	fresh     *store.ExperimentDB // the database Finalize returned
	dir       string
	storeDir  string
	path      string // saved level-3 file
	condition time.Duration
	save      time.Duration
	open      time.Duration
	net       netem.Stats
	// unrun counts Report events of completed runs without a run id,
	// which level-3 does not store (see verify).
	unrun int
}

func newProbe(tr *obs.Tracer, root uint64, rpc bool) *probe {
	p := &probe{tr: tr, root: root, reg: obs.NewRegistry(), calls: map[string]*callStat{}}
	p.mreg = p.reg
	if rpc {
		p.mreg = obs.NewRegistry()
	}
	return p
}

func (p *probe) begin(parent uint64, cat, name string) uint64 {
	if p == nil {
		return 0
	}
	return p.tr.Begin(parent, "bench", cat, name, -1, 0, nil)
}

// openCampaign opens a campaign span under the workload span.
func (p *probe) openCampaign(name string) uint64 { return p.begin(p.rootSpan(), "campaign", name) }

func (p *probe) rootSpan() uint64 {
	if p == nil {
		return 0
	}
	return p.root
}

func (p *probe) end(id uint64) {
	if p != nil {
		p.tr.End(id)
	}
}

func (p *probe) masterRegistry() *obs.Registry {
	if p == nil {
		return nil
	}
	return p.mreg
}

// startRuns opens the first run span under the campaign span.
func (p *probe) startRuns(campaign uint64) {
	if p == nil {
		return
	}
	p.campaign = campaign
	p.runIdx = 0
	p.runSpan.Store(p.tr.Begin(campaign, "bench", "run", "run[0]", 0, 0, nil))
}

// runDone closes the current run span and opens the next one; it runs in
// the master's OnRunDone callback.
func (p *probe) runDone() {
	if p == nil {
		return
	}
	p.tr.End(p.runSpan.Load())
	p.runIdx++
	p.runSpan.Store(p.tr.Begin(p.campaign, "bench", "run", "run["+strconv.Itoa(p.runIdx)+"]", p.runIdx, 0, nil))
}

// stopRuns closes the span opened after the last run (the master's
// experiment exit).
func (p *probe) stopRuns() {
	if p != nil {
		p.tr.End(p.runSpan.Swap(0))
	}
}

// watchClient attaches the master-side registry to a control-channel
// client and remembers it for its call statistics.
func (p *probe) watchClient(c *xmlrpc.Client) {
	if p == nil {
		return
	}
	c.Obs = p.mreg
	p.mu.Lock()
	p.clients = append(p.clients, c)
	p.mu.Unlock()
}

// clientStats sums the call statistics of every watched client.
func (p *probe) clientStats() xmlrpc.ClientStats {
	p.mu.Lock()
	clients := append([]*xmlrpc.Client(nil), p.clients...)
	p.mu.Unlock()
	var sum xmlrpc.ClientStats
	for _, c := range clients {
		st := c.Stats()
		sum.Calls += st.Calls
		sum.Attempts += st.Attempts
		sum.Retries += st.Retries
		sum.Failures += st.Failures
	}
	return sum
}

func (p *probe) keep(k kept) {
	if p != nil {
		p.kept = k
	}
}

// wrap returns the handle the master drives: the proxy itself when
// untraced, a timing wrapper when traced.
func (p *probe) wrap(r *noderpc.RemoteNode) master.NodeHandle {
	if p == nil {
		return r
	}
	return &timedNode{RemoteNode: r, p: p}
}

// timedNode times the control-channel calls of one RemoteNode and records
// a span per call under the current run span. Embedding forwards every
// optional extension the master type-asserts (Health, Err, SetTraceParent,
// HarvestTrace, ObsSnapshot, ObsSource), so the master takes the same
// control path as with the bare proxy; the assertion below keeps it so.
type timedNode struct {
	*noderpc.RemoteNode
	p *probe
}

var _ interface {
	master.NodeHandle
	master.HealthChecker
	Err() error
	SetTraceParent(id uint64)
	HarvestTrace(run int) []obs.Span
	ObsSnapshot() ([]obs.MetricPoint, error)
	ObsSource() string
} = (*timedNode)(nil)

// timed runs one call inside an rpc span and accounts its duration.
func (t *timedNode) timed(method string, run int, fn func()) {
	sp := t.p.tr.Begin(t.p.runSpan.Load(), "rpc:"+t.NodeID, "rpc", method, run, 0, nil)
	start := wallNow()
	fn()
	d := time.Since(start)
	t.p.tr.End(sp)
	t.p.mu.Lock()
	cs := t.p.calls[method]
	if cs == nil {
		cs = &callStat{}
		t.p.calls[method] = cs
	}
	cs.n++
	cs.total += d
	t.p.mu.Unlock()
}

func (t *timedNode) PrepareRun(run int) {
	t.timed("node.prepare_run", run, func() { t.RemoteNode.PrepareRun(run) })
}

func (t *timedNode) CleanupRun(run int) {
	t.timed("node.cleanup_run", run, func() { t.RemoteNode.CleanupRun(run) })
}

func (t *timedNode) LocalTime() (lt time.Time) {
	t.timed("node.local_time", -1, func() { lt = t.RemoteNode.LocalTime() })
	return lt
}

func (t *timedNode) HarvestEvents(run int) (evs []eventlog.Event) {
	t.timed("node.harvest_events", run, func() { evs = t.RemoteNode.HarvestEvents(run) })
	return evs
}

func (t *timedNode) HarvestPackets() (pkts []store.PacketRecord) {
	t.timed("node.harvest_packets", -1, func() { pkts = t.RemoteNode.HarvestPackets() })
	return pkts
}

func (t *timedNode) HarvestExtras() (xs []store.ExtraMeasurement) {
	t.timed("node.harvest_extras", -1, func() { xs = t.RemoteNode.HarvestExtras() })
	return xs
}

// callMs returns the mean wall time of the named calls in milliseconds,
// summed per invocation of the first (0 when never called).
func (p *probe) callMs(methods ...string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	first := p.calls[methods[0]]
	if first == nil || first.n == 0 {
		return 0
	}
	var total time.Duration
	for _, m := range methods {
		if cs := p.calls[m]; cs != nil {
			total += cs.total
		}
	}
	return float64(total) / 1e6 / float64(first.n)
}
