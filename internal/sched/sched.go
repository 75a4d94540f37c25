// Package sched provides a cooperative discrete-event scheduler.
//
// All ExCovery components that model distributed behaviour (network links,
// protocol agents, experiment processes, fault injectors) run as tasks on a
// Scheduler. Exactly one task executes at any moment; a task runs until it
// blocks on one of the scheduler primitives (Sleep, Cond.Wait, Yield). This
// cooperative model has two important consequences:
//
//   - Determinism. In virtual-time mode, a run is a pure function of the
//     task program and the seeds it uses. Timers fire in (time, sequence)
//     order and runnable tasks resume in FIFO order, so repeated executions
//     are bit-identical — the repeatability property ExCovery demands of its
//     platform (§IV-A).
//
//   - Lock freedom. Task code never runs concurrently with other task code,
//     so shared state touched only by tasks needs no mutexes. The only entry
//     point for foreign goroutines is Inject, which hands a closure to the
//     scheduler to be run as a task.
//
// Besides tasks, the scheduler runs inline events: small non-blocking
// callbacks executed directly on the controller goroutine (ScheduleEvent,
// PostEvent). Events skip the goroutine handoff a task costs and their
// timers are pooled, which is what makes the emulator's per-packet path
// allocation-free. An event shares the timer heap and the runnable FIFO
// with tasks, so tasks and events interleave in exactly the (time, seq) /
// FIFO order determinism requires.
//
// The scheduler supports two modes. In Virtual mode time jumps instantly
// from event to event; an experiment with thousands of runs completes in
// seconds. In RealTime mode the controller sleeps the wall-clock delta
// (scaled by a speed factor) before firing each timer, so emulated protocol
// behaviour can interact with live external systems such as an XML-RPC
// control plane.
package sched

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"excovery/internal/obs"
)

// Mode selects how the scheduler maps virtual time onto wall-clock time.
type Mode int

const (
	// Virtual advances time instantly to the next pending timer.
	Virtual Mode = iota
	// RealTime sleeps the (scaled) wall-clock delta before firing timers.
	RealTime
)

func (m Mode) String() string {
	switch m {
	case Virtual:
		return "virtual"
	case RealTime:
		return "realtime"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// taskState describes where a task currently is in its lifecycle.
type taskState int

const (
	stateRunnable taskState = iota
	stateRunning
	stateBlocked
	stateDone
)

type task struct {
	id    uint64
	name  string
	wake  chan struct{}
	state taskState
	// fn is the body the worker goroutine runs on its next dispatch. Task
	// goroutines are pooled: when a task finishes, its goroutine parks and
	// a later spawn reuses it with a fresh id, name and fn.
	fn func()
	// daemon tasks (network pumps, protocol agents) do not keep Run alive:
	// when only daemons remain and nothing is scheduled, Run returns nil
	// instead of reporting a deadlock.
	daemon bool
	// timedOut reports whether the last WaitTimeout ended by timeout.
	timedOut bool
	// blockedOn is a human-readable description of the blocking primitive,
	// used in deadlock reports. Sleep stores just "sleep" plus the
	// duration in blockedFor and the report formats them lazily —
	// deadlocks are rare, sleeps are per-action-hot, and the Sprintf was
	// a measurable share of the run loop's allocations.
	blockedOn  string
	blockedFor time.Duration
	// cw is the task's condition-variable waiter, embedded so Wait does
	// not allocate one per block. A task waits on at most one Cond at a
	// time, and a superseded waiter is never revisited: Signal/Broadcast
	// unlink it and stop its timer, and stopped timers are discarded
	// unfired when popped.
	cw condWaiter
	// sleep is the task's wake timer, embedded so Sleep does not allocate
	// a Timer per block. Sleep timers are never stopped and are always
	// popped from the heap before the task can sleep again, so the struct
	// is reusable the moment the task resumes.
	sleep Timer
}

// runnableItem is one entry of the runnable FIFO: either a task to resume
// or an inline event to run on the controller goroutine. Sharing one FIFO
// keeps the relative order of task wakeups and posted events identical to
// a task-only scheduler, which the byte-identity of recorded runs depends
// on.
type runnableItem struct {
	t   *task
	fn  func(now time.Time, arg any)
	arg any
}

// DeadlockError is returned by Run when live tasks remain but none is
// runnable and no timer is pending. It lists the blocked tasks to aid
// debugging of experiment descriptions that wait for events that can never
// occur.
type DeadlockError struct {
	Now     time.Time
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sched: deadlock at %s: %d task(s) blocked: %v",
		e.Now.Format(time.RFC3339Nano), len(e.Blocked), e.Blocked)
}

// PanicError wraps a panic that escaped a task function.
type PanicError struct {
	Task  string
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sched: task %q panicked: %v", e.Task, e.Value)
}

// maxIdleWorkers bounds the pool of parked task goroutines kept between
// spawns; the pool is drained when Run returns so abandoned schedulers do
// not pin goroutines.
const maxIdleWorkers = 64

// maxFreeTimers bounds the event-timer free list.
const maxFreeTimers = 1024

// Scheduler is a cooperative discrete-event scheduler. The zero value is not
// usable; create one with New.
type Scheduler struct {
	mode   Mode
	factor float64 // wall seconds per virtual second in RealTime mode

	mu        sync.Mutex
	now       time.Time
	seq       uint64
	timers    timerHeap
	runnable  []runnableItem
	tasks     map[uint64]*task // live tasks
	current   *task
	ctrl      chan struct{} // task -> controller: "I blocked or exited"
	inject    chan struct{} // foreign goroutine -> controller: "new work"
	stopping  bool
	panicked  *PanicError
	running   bool // a Run* call is active
	daemons   int  // live daemon tasks
	keepAlive bool // RealTime: stay in Run when quiescent, awaiting Inject

	// idleWorkers holds parked task goroutines for reuse; timerFree holds
	// recycled event timers. Both are touched only under mu.
	idleWorkers []*task
	timerFree   []*Timer

	// stats
	switches uint64
	fired    uint64

	// m holds the scheduler's pre-resolved instruments (metrics.go); the
	// zero value keeps the run loop uninstrumented and allocation-free.
	// lockWait lives outside m so Inject can consult it before taking
	// s.mu without racing Instrument.
	m        schedMetrics
	lockWait atomic.Pointer[obs.Histogram]
}

// New creates a scheduler starting at the given epoch. The epoch becomes the
// initial value of Now; experiments typically use a fixed epoch so recorded
// timestamps are stable across runs.
func New(mode Mode, epoch time.Time) *Scheduler {
	return &Scheduler{
		mode:   mode,
		factor: 1.0,
		now:    epoch,
		tasks:  make(map[uint64]*task),
		ctrl:   make(chan struct{}),
		inject: make(chan struct{}, 1),
	}
}

// NewVirtual is shorthand for New(Virtual, epoch) with a fixed, arbitrary
// epoch useful in tests and emulated experiments.
func NewVirtual() *Scheduler {
	return New(Virtual, time.Date(2014, 5, 19, 0, 0, 0, 0, time.UTC))
}

// SetSpeed sets the real-time pacing factor: wall-clock seconds slept per
// virtual second. A factor of 0.1 runs ten times faster than real time. It
// has no effect in Virtual mode. SetSpeed must be called before Run.
func (s *Scheduler) SetSpeed(factor float64) {
	if factor <= 0 {
		panic("sched: speed factor must be positive")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.factor = factor
}

// Mode reports the scheduler's time mode.
func (s *Scheduler) Mode() Mode { return s.mode }

// SetKeepAlive makes a RealTime Run call stay active when the system is
// quiescent, waiting for Inject instead of returning. RPC-serving node
// hosts need this; Stop still terminates the Run.
func (s *Scheduler) SetKeepAlive(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keepAlive = on
}

// Now returns the current virtual time. It may be called from any goroutine.
func (s *Scheduler) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Switches returns the number of task resumptions performed so far. It is a
// cheap proxy for simulation effort, used by benchmarks.
func (s *Scheduler) Switches() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.switches
}

// FiredTimers returns the number of timers fired so far.
func (s *Scheduler) FiredTimers() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fired
}

// Go spawns fn as a new tracked task. It may be called before Run, from
// within a running task, or (rarely) from a foreign goroutine. The task does
// not start executing until the controller schedules it.
func (s *Scheduler) Go(name string, fn func()) {
	s.spawn(name, fn, false)
}

// GoDaemon spawns fn as a daemon task: a long-lived service (e.g. a network
// interface pump) that should not keep Run alive. When every live task is a
// daemon and no timer or runnable task remains, Run returns nil — the
// system is quiescent, not deadlocked.
func (s *Scheduler) GoDaemon(name string, fn func()) {
	s.spawn(name, fn, true)
}

func (s *Scheduler) spawn(name string, fn func(), daemon bool) {
	s.mu.Lock()
	t, fresh := s.startTaskLocked(name, fn, daemon)
	s.runnable = append(s.runnable, runnableItem{t: t})
	s.mu.Unlock()
	if fresh {
		go s.workerBody(t)
	}
}

// startTaskLocked allocates or reuses a task for fn and registers it as
// live. fresh reports whether a new worker goroutine must be started.
func (s *Scheduler) startTaskLocked(name string, fn func(), daemon bool) (t *task, fresh bool) {
	s.seq++
	if k := len(s.idleWorkers); k > 0 {
		t = s.idleWorkers[k-1]
		s.idleWorkers[k-1] = nil
		s.idleWorkers = s.idleWorkers[:k-1]
		t.id = s.seq
		t.name = name
		t.state = stateRunnable
		t.daemon = daemon
		t.timedOut = false
		t.blockedOn = ""
		t.cw = condWaiter{}
		t.fn = fn
	} else {
		fresh = true
		t = &task{id: s.seq, name: name, wake: make(chan struct{}, 1),
			state: stateRunnable, daemon: daemon, fn: fn}
	}
	s.tasks[t.id] = t
	if daemon {
		s.daemons++
	}
	return t, fresh
}

// workerBody is the goroutine behind one (possibly reused) task slot. Each
// iteration runs one task body; between bodies the goroutine parks in the
// idle pool. A nil fn wakes it for the last time: the pool is draining.
func (s *Scheduler) workerBody(t *task) {
	for {
		<-t.wake // wait for dispatch (or pool drain)
		fn := t.fn
		if fn == nil {
			return
		}
		t.fn = nil
		s.runTaskFn(t, fn)
		s.mu.Lock()
		s.finishTaskLocked(t)
		pooled := len(s.idleWorkers) < maxIdleWorkers
		if pooled {
			s.idleWorkers = append(s.idleWorkers, t)
		}
		s.mu.Unlock()
		s.ctrl <- struct{}{}
		if !pooled {
			return
		}
	}
}

// runTaskFn executes one task body, converting an escaped panic into the
// scheduler's PanicError.
func (s *Scheduler) runTaskFn(t *task, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			if s.panicked == nil {
				s.panicked = &PanicError{Task: t.name, Value: r, Stack: string(debug.Stack())}
			}
			s.mu.Unlock()
		}
	}()
	fn()
}

func (s *Scheduler) finishTaskLocked(t *task) {
	t.state = stateDone
	delete(s.tasks, t.id)
	if t.daemon {
		s.daemons--
	}
	if s.current == t {
		s.current = nil
	}
}

// drainWorkersLocked releases all parked worker goroutines. Called (with mu
// held) when Run returns, so a scheduler that is dropped between runs does
// not pin goroutines.
func (s *Scheduler) drainWorkersLocked() []*task {
	ws := s.idleWorkers
	s.idleWorkers = nil
	return ws
}

// Inject hands fn to the scheduler from a foreign goroutine; fn will run as
// a regular task. Inject is the only scheduler entry point that is safe to
// call from goroutines not managed by the scheduler (e.g. RPC handlers). If
// the scheduler is between Run calls the work is queued until the next Run.
func (s *Scheduler) Inject(name string, fn func()) {
	if h := s.lockWait.Load(); h != nil {
		// Instrumented path only: the uninstrumented scheduler must not
		// read the wall clock.
		//lint:ignore walltime the lock-wait histogram measures wall time by definition
		t0 := time.Now()
		s.mu.Lock()
		h.Observe(time.Since(t0).Seconds())
	} else {
		s.mu.Lock()
	}
	t, fresh := s.startTaskLocked(name, fn, false)
	s.runnable = append(s.runnable, runnableItem{t: t})
	s.mu.Unlock()
	if fresh {
		go s.workerBody(t)
	}
	// Poke the controller in case it is idle-waiting (RealTime mode).
	select {
	case s.inject <- struct{}{}:
	default:
	}
}

// InjectWait runs fn as a task and blocks the calling (foreign) goroutine
// until fn returns. It must not be called from within a task: that would
// deadlock the cooperative scheduler.
func (s *Scheduler) InjectWait(name string, fn func()) {
	done := make(chan struct{})
	s.Inject(name, func() {
		defer close(done)
		fn()
	})
	<-done
}

// Stop requests that the active Run call return as soon as the currently
// executing task blocks. Pending work remains queued.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	select {
	case s.inject <- struct{}{}:
	default:
	}
}

// ErrStopped is returned by Run when Stop was called.
var ErrStopped = fmt.Errorf("sched: stopped")

// Run drives the scheduler until no live tasks remain, a deadline (zero
// means none) is reached, Stop is called, or the system deadlocks. It
// returns nil on normal completion, a *DeadlockError on deadlock, a
// *PanicError if a task panicked, or ErrStopped.
func (s *Scheduler) Run() error { return s.run(time.Time{}) }

// RunUntil drives the scheduler until virtual time reaches deadline (or any
// of the Run termination conditions occurs first). Reaching the deadline is
// a normal return: timers at or after the deadline stay pending.
func (s *Scheduler) RunUntil(deadline time.Time) error { return s.run(deadline) }

// RunFor is RunUntil(Now().Add(d)).
func (s *Scheduler) RunFor(d time.Duration) error {
	s.mu.Lock()
	deadline := s.now.Add(d)
	s.mu.Unlock()
	return s.run(deadline)
}

func (s *Scheduler) run(deadline time.Time) error {
	s.mu.Lock()
	if s.running {
		s.mu.Unlock()
		panic("sched: concurrent Run calls")
	}
	s.running = true
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.running = false
		ws := s.drainWorkersLocked()
		s.mu.Unlock()
		for _, t := range ws {
			t.fn = nil
			t.wake <- struct{}{}
		}
	}()

	//lint:ignore walltime realtime mode anchors the virtual timeline to one wall reading by design
	wallBase := time.Now()
	virtBase := s.Now()

	for {
		s.mu.Lock()
		if s.panicked != nil {
			pe := s.panicked
			s.panicked = nil
			s.mu.Unlock()
			return pe
		}
		if s.stopping {
			s.stopping = false
			s.mu.Unlock()
			return ErrStopped
		}

		// 1. Resume the next runnable item (task or posted event), if any.
		if len(s.runnable) > 0 {
			it := s.runnable[0]
			copy(s.runnable, s.runnable[1:])
			s.runnable[len(s.runnable)-1] = runnableItem{}
			s.runnable = s.runnable[:len(s.runnable)-1]
			if it.t != nil {
				t := it.t
				t.state = stateRunning
				s.current = t
				s.switches++
				s.m.switches.Inc()
				s.m.runnable.Set(int64(len(s.runnable)))
				s.mu.Unlock()
				t.wake <- struct{}{}
				<-s.ctrl // wait until t blocks or exits
			} else {
				now := s.now
				s.m.runnable.Set(int64(len(s.runnable)))
				s.mu.Unlock()
				s.runEvent(it.fn, now, it.arg)
			}
			continue
		}

		// 2. No runnable task: fire the earliest timer.
		if s.timers.Len() > 0 {
			tm := s.timers[0]
			if tm.stopped {
				s.timers.pop()
				s.mu.Unlock()
				continue
			}
			if !deadline.IsZero() && tm.when.After(deadline) {
				if s.now.Before(deadline) {
					s.now = deadline
				}
				s.mu.Unlock()
				return nil
			}
			if s.mode == RealTime && tm.when.After(s.now) {
				// Sleep the scaled wall-clock delta, but wake early on
				// injection so external work gets serviced promptly.
				target := wallBase.Add(time.Duration(float64(tm.when.Sub(virtBase)) * s.factor))
				dt := time.Until(target)
				if dt > 0 {
					s.mu.Unlock()
					select {
					case <-time.After(dt):
					case <-s.inject:
					}
					continue // re-evaluate: injection may have added work
				}
			}
			s.timers.pop()
			if tm.when.After(s.now) {
				s.now = tm.when
			}
			if !tm.stopped {
				s.fired++
				s.m.fired.Inc()
				s.m.queueLen.Set(int64(s.timers.Len()))
				s.observeVtimeLagLocked(wallBase, virtBase)
				switch {
				case tm.eventFn != nil:
					// Inline event: runs on the controller goroutine
					// after releasing the lock. The timer is recycled
					// first — event timers are never exposed to callers.
					fn, arg := tm.eventFn, tm.eventArg
					now := s.now
					s.releaseTimerLocked(tm)
					s.mu.Unlock()
					s.runEvent(fn, now, arg)
					continue
				case tm.wake != nil:
					s.makeRunnableLocked(tm.wake)
				case tm.spawnFn != nil:
					t, fresh := s.startTaskLocked(tm.spawnName, tm.spawnFn, false)
					s.runnable = append(s.runnable, runnableItem{t: t})
					tm.spawnFn = nil
					if fresh {
						s.mu.Unlock()
						go s.workerBody(t)
						continue
					}
				default:
					// Runs with s.mu held; only queue manipulation.
					tm.fire()
				}
			}
			s.mu.Unlock()
			continue
		}

		// 3. Nothing runnable, no timers. The system is finished when
		// only daemon tasks remain blocked — unless keep-alive mode
		// holds the scheduler open for external injections (an RPC
		// serving host).
		if len(s.tasks) == s.daemons {
			if s.keepAlive && s.mode == RealTime {
				s.mu.Unlock()
				select {
				case <-s.inject:
				case <-time.After(50 * time.Millisecond):
				}
				continue
			}
			s.mu.Unlock()
			return nil
		}
		if s.mode == RealTime {
			// Live tasks are blocked waiting for external input.
			s.mu.Unlock()
			select {
			case <-s.inject:
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		blocked := s.blockedNamesLocked()
		now := s.now
		s.mu.Unlock()
		return &DeadlockError{Now: now, Blocked: blocked}
	}
}

// runEvent executes one inline event on the controller goroutine, without
// the scheduler lock, converting an escaped panic into a PanicError.
func (s *Scheduler) runEvent(fn func(time.Time, any), now time.Time, arg any) {
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			if s.panicked == nil {
				s.panicked = &PanicError{Task: "event", Value: r, Stack: string(debug.Stack())}
			}
			s.mu.Unlock()
		}
	}()
	fn(now, arg)
}

func (s *Scheduler) blockedNamesLocked() []string {
	var names []string
	for _, t := range s.tasks {
		if t.state == stateBlocked && !t.daemon {
			on := t.blockedOn
			if on == "sleep" {
				on = "sleep " + t.blockedFor.String()
			}
			names = append(names, fmt.Sprintf("%s (on %s)", t.name, on))
		}
	}
	sort.Strings(names)
	return names
}

// block parks the current task. The caller must have already registered the
// task with whatever will later make it runnable again (a timer or a cond
// waiter list), while holding s.mu; block is called after releasing s.mu.
func (s *Scheduler) block(t *task) {
	s.ctrl <- struct{}{}
	<-t.wake
}

// mustCurrent returns the currently executing task and panics if the caller
// is not running on the scheduler. All blocking primitives require task
// context — inline events (ScheduleEvent, PostEvent) and packet handlers
// invoked from them must not block.
func (s *Scheduler) mustCurrentLocked(op string) *task {
	t := s.current
	if t == nil || t.state != stateRunning {
		panic("sched: " + op + " called outside a scheduler task")
	}
	return t
}

// makeRunnableLocked transitions a blocked task to the runnable queue.
func (s *Scheduler) makeRunnableLocked(t *task) {
	if t.state != stateBlocked {
		panic("sched: makeRunnable on non-blocked task")
	}
	t.state = stateRunnable
	t.blockedOn = ""
	s.runnable = append(s.runnable, runnableItem{t: t})
}

// Sleep suspends the current task for d of virtual time. Non-positive
// durations yield the processor but do not advance time.
func (s *Scheduler) Sleep(d time.Duration) {
	s.mu.Lock()
	t := s.mustCurrentLocked("Sleep")
	t.state = stateBlocked
	t.blockedOn = "sleep"
	t.blockedFor = d
	s.current = nil
	if d < 0 {
		d = 0
	}
	s.addSleepTimerLocked(s.now.Add(d), t)
	s.mu.Unlock()
	s.block(t)
}

// Yield moves the current task to the back of the runnable queue, letting
// other runnable tasks execute at the same virtual instant.
func (s *Scheduler) Yield() {
	s.mu.Lock()
	t := s.mustCurrentLocked("Yield")
	t.state = stateRunnable
	s.current = nil
	s.runnable = append(s.runnable, runnableItem{t: t})
	s.mu.Unlock()
	s.block(t)
}

// Timer is a cancelable scheduled callback. Its fire function runs with the
// scheduler lock held and must restrict itself to queue manipulation; user
// callbacks are wrapped in fresh tasks by ScheduleFunc.
type Timer struct {
	s       *Scheduler
	when    time.Time
	whenNS  int64 // when.UnixNano(), cached so heap ordering is int compares
	seq     uint64
	stopped bool
	fire    func()
	// wake, when set, replaces fire: the timer just makes this task
	// runnable. Sleep is per-action-hot, and storing the task directly
	// avoids allocating a wake closure for every sleep.
	wake *task
	// spawnFn/spawnName, when set, replace fire: the timer starts a new
	// task running spawnFn.
	spawnFn   func()
	spawnName string
	// eventFn/eventArg, when set, replace fire: the timer runs eventFn
	// inline on the controller goroutine, outside the scheduler lock.
	// Event timers are pooled and never escape the scheduler.
	eventFn  func(now time.Time, arg any)
	eventArg any
}

// When returns the virtual time at which the timer fires.
func (t *Timer) When() time.Time { return t.when }

// Stop cancels the timer. It reports whether the timer was still pending.
// Safe to call multiple times and from any task.
func (t *Timer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	return true
}

func (s *Scheduler) addTimerLocked(when time.Time, fire func()) *Timer {
	s.seq++
	tm := &Timer{s: s, when: when, whenNS: when.UnixNano(), seq: s.seq, fire: fire}
	s.timers.push(tm)
	return tm
}

// addSleepTimerLocked schedules the task's embedded wake timer: no
// allocation, and no wake closure a fire func would cost.
func (s *Scheduler) addSleepTimerLocked(when time.Time, t *task) {
	s.seq++
	tm := &t.sleep
	tm.s = s
	tm.when = when
	tm.whenNS = when.UnixNano()
	tm.seq = s.seq
	tm.stopped = false
	tm.wake = t
	s.timers.push(tm)
}

// ScheduleFunc runs fn as a new task after d of virtual time. The returned
// Timer can cancel it before it fires. fn runs as a full task and may block
// on scheduler primitives.
func (s *Scheduler) ScheduleFunc(d time.Duration, name string, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addSpawnTimerLocked(s.now.Add(d), name, fn)
}

// ScheduleAt is ScheduleFunc with an absolute firing time.
func (s *Scheduler) ScheduleAt(when time.Time, name string, fn func()) *Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	if when.Before(s.now) {
		when = s.now
	}
	return s.addSpawnTimerLocked(when, name, fn)
}

// addSpawnTimerLocked schedules a timer that starts fn as a fresh task.
func (s *Scheduler) addSpawnTimerLocked(when time.Time, name string, fn func()) *Timer {
	s.seq++
	tm := &Timer{s: s, when: when, whenNS: when.UnixNano(), seq: s.seq, spawnFn: fn, spawnName: name}
	s.timers.push(tm)
	return tm
}

// ScheduleEvent runs fn(now, arg) inline on the controller goroutine after
// d of virtual time. Events are the allocation-free fast path for per-packet
// work: the timer comes from a free list and fn is expected to be a static
// function with its state in arg. fn runs without the scheduler lock but
// outside any task, so it must not block on scheduler primitives; it may
// schedule further events, post events, spawn tasks and signal conds.
// Events are not cancelable.
func (s *Scheduler) ScheduleEvent(d time.Duration, fn func(now time.Time, arg any), arg any) {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	when := s.now.Add(d)
	s.seq++
	var tm *Timer
	if k := len(s.timerFree); k > 0 {
		tm = s.timerFree[k-1]
		s.timerFree[k-1] = nil
		s.timerFree = s.timerFree[:k-1]
	} else {
		tm = &Timer{s: s}
	}
	tm.when = when
	tm.whenNS = when.UnixNano()
	tm.seq = s.seq
	tm.stopped = false
	tm.eventFn = fn
	tm.eventArg = arg
	s.timers.push(tm)
	s.mu.Unlock()
}

// releaseTimerLocked returns a fired event timer to the free list.
func (s *Scheduler) releaseTimerLocked(tm *Timer) {
	tm.eventFn = nil
	tm.eventArg = nil
	if len(s.timerFree) < maxFreeTimers {
		s.timerFree = append(s.timerFree, tm)
	}
}

// PostEvent appends fn(now, arg) to the runnable FIFO: it runs at the
// current virtual instant, after the items already queued, before any
// timer fires — the same position a task woken by Cond.Signal would get.
// The same non-blocking rules as for ScheduleEvent apply.
func (s *Scheduler) PostEvent(fn func(now time.Time, arg any), arg any) {
	s.mu.Lock()
	s.runnable = append(s.runnable, runnableItem{fn: fn, arg: arg})
	s.mu.Unlock()
}

// timerHeap orders timers by (whenNS, seq) so simultaneous timers fire in
// creation order, keeping virtual-mode execution deterministic. It is a
// hand-rolled binary heap: timer pushes and pops are the hottest scheduler
// operation, and cached int64 keys with direct calls beat the
// container/heap interface plus time.Time comparisons by a wide margin.
type timerHeap []*Timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) before(a, b *Timer) bool {
	if a.whenNS != b.whenNS {
		return a.whenNS < b.whenNS
	}
	return a.seq < b.seq
}

func (h *timerHeap) push(tm *Timer) {
	*h = append(*h, tm)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.before(tm, q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = tm
}

// pop removes and returns the earliest timer. The caller must have checked
// Len() > 0.
func (h *timerHeap) pop() *Timer {
	q := *h
	top := q[0]
	n := len(q) - 1
	tm := q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	if n > 0 {
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && q.before(q[r], q[l]) {
				l = r
			}
			if !q.before(q[l], tm) {
				break
			}
			q[i] = q[l]
			i = l
		}
		q[i] = tm
	}
	return top
}
