package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Kernel is the discrete-event simulation kernel. It owns the event queue
// and the set of simulated threads and dispatches them in timestamp order.
//
// A Kernel is not safe for concurrent use from the host program: exactly
// one simulated thread or event callback runs at a time, and all shared
// simulation state (caches, controllers, …) relies on that serialization.
// Distinct Kernels are fully independent and may run on concurrent host
// goroutines (the experiment harness's parallel runner relies on this).
type Kernel struct {
	events    eventQueue
	eventPool []*Event // recycled ScheduleHandler events
	cancelled int      // cancelled events still occupying the queue
	seq       uint64
	threads   []*Thread
	ready     readyQueue // min-heap of runnable threads by (clock, id)
	now       Time       // timestamp of the most recently dispatched entity
	running   bool
	stopped   bool // a stop reason has been recorded; later ones are ignored
	stopErr   error

	sched        SchedulerFunc // controlled-scheduler mode; nil = (clock, id) dispatch
	readyScratch []*Thread     // reused view passed to sched
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{} }

// Now returns the timestamp of the most recently dispatched thread step or
// event. Inside a thread, prefer Thread.Clock (the thread's own time).
func (k *Kernel) Now() Time { return k.now }

// Schedule registers fn to run at the absolute time at. If at is in the
// past (before the kernel's current time), the event fires as soon as
// possible, still in deterministic order. The returned Event may be
// cancelled before it fires.
func (k *Kernel) Schedule(at Time, fn func()) *Event {
	e := &Event{At: at, fn: fn, k: k, seq: k.seq}
	k.seq++
	k.events.push(e)
	return e
}

// Handler receives callbacks from events scheduled with ScheduleHandler.
// arg carries the per-event payload (an admit time, a queue index, …);
// richer payloads live in the handler's own pending structures, keyed by
// (at, arg).
type Handler interface {
	OnEvent(at Time, arg uint64)
}

// ScheduleHandler registers h.OnEvent(at, arg) to run at the absolute
// time at. It is the allocation-free sibling of Schedule for hot paths:
// the Event is drawn from a pool and recycled after firing, so — unlike
// Schedule — no handle is returned and the event cannot be cancelled.
// Ordering is identical to Schedule (shared (At, seq) sequence).
func (k *Kernel) ScheduleHandler(at Time, h Handler, arg uint64) {
	var e *Event
	if n := len(k.eventPool); n > 0 {
		e = k.eventPool[n-1]
		k.eventPool[n-1] = nil
		k.eventPool = k.eventPool[:n-1]
		e.At, e.seq, e.cancelled = at, k.seq, false
	} else {
		e = &Event{At: at, k: k, seq: k.seq}
	}
	e.h, e.arg = h, arg
	k.seq++
	k.events.push(e)
}

// compactEvents rebuilds the event queue without its cancelled entries.
// Cancel only marks events, so long-lived runs that cancel many timeouts
// would otherwise drag dead entries through every heap operation; Cancel
// triggers a rebuild once they outnumber the live events.
func (k *Kernel) compactEvents() {
	live := k.events[:0]
	for _, en := range k.events {
		if en.e.cancelled {
			en.e.queued = false
			continue
		}
		live = append(live, en)
	}
	for i := len(live); i < len(k.events); i++ {
		k.events[i] = eventEntry{}
	}
	k.events = live
	k.events.init()
	k.cancelled = 0
}

// Spawn creates a simulated thread that will execute body when Run is
// called. Threads are dispatched lowest-clock first (ties broken by
// creation order). startAt sets the thread's initial clock. The body runs
// as a pull-coroutine the kernel resumes inline on its own goroutine.
func (k *Kernel) Spawn(name string, startAt Time, body func(t *Thread)) *Thread {
	t := &Thread{
		id:         len(k.threads),
		name:       name,
		clock:      startAt,
		state:      threadReady,
		readyIndex: -1,
		kernel:     k,
	}
	t.coro = newGoCoro(t, body)
	k.threads = append(k.threads, t)
	k.ready.push(t)
	return t
}

// Threads returns the threads spawned on the kernel, in creation order.
func (k *Kernel) Threads() []*Thread { return k.threads }

// SchedulerFunc is a controlled scheduler: given the runnable threads (in
// creation order), it returns the one to step next, or nil to decline —
// in which case the kernel fires the earliest pending event instead (and
// reports a deadlock if there is none). The returned thread must be one
// of the runnable threads passed in.
type SchedulerFunc func(ready []*Thread) *Thread

// SetScheduler switches the kernel into controlled-scheduler mode: where
// the default dispatch would step the earliest-(clock, id) runnable
// thread, the kernel instead asks pick which thread to step. The choice
// is a scheduling decision, not a time machine: a picked thread whose
// clock lags the kernel's current time is warped forward to it (delaying
// a thread costs it wall-clock), so simulated time stays monotone and
// every controlled execution is a legitimate timed schedule. Events are
// never a choice — hardware machinery due at or before the next step
// always fires first. Passing nil restores the default dispatch.
//
// The model checker (internal/mc) uses this to enumerate thread
// interleavings; the hook is not intended for performance work.
func (k *Kernel) SetScheduler(pick SchedulerFunc) { k.sched = pick }

// EventsPending reports whether any live event is queued. Controlled
// schedulers use it to decide between declining (drain hardware events)
// and declaring themselves stuck.
func (k *Kernel) EventsPending() bool { return k.nextEvent() != nil }

// readyView rebuilds the scratch slice of runnable threads in creation
// order for a SchedulerFunc call.
func (k *Kernel) readyView() []*Thread {
	k.readyScratch = k.readyScratch[:0]
	for _, t := range k.threads {
		if t.readyIndex >= 0 {
			k.readyScratch = append(k.readyScratch, t)
		}
	}
	return k.readyScratch
}

// Stop aborts the run: after the currently dispatched entity yields, Run
// returns err (which may be nil). The first stop reason wins — later
// Stop calls and thread panics cannot overwrite it. Remaining threads are
// abandoned: their coroutines are aborted and unwind via a panic the
// body epilogue swallows.
func (k *Kernel) Stop(err error) {
	k.running = false
	if !k.stopped {
		k.stopped = true
		k.stopErr = err
	}
}

// errKernelStopped is the panic payload used to unwind abandoned threads.
type errKernelStopped struct{}

// Run executes the simulation until every thread has finished and the
// event queue is empty, or Stop is called, or no progress is possible.
// It returns an error if the simulation deadlocks (all remaining threads
// blocked with no pending events) or if Stop was called with an error.
func (k *Kernel) Run() error {
	k.running = true
	k.stopped = false
	k.stopErr = nil
	for k.running {
		// Fire the earliest event if it is not after the earliest
		// runnable thread; otherwise step that thread (or, in
		// controlled-scheduler mode, the thread the scheduler picks).
		t := k.ready.peek()
		e := k.nextEvent()
		switch {
		case e != nil && (t == nil || e.At <= t.clock):
			k.fire(e)
		case t != nil:
			if k.sched != nil {
				k.stepControlled(t, e)
				break
			}
			k.dispatch(t)
		default:
			if k.anyLive() {
				k.running = false
				if !k.stopped {
					k.stopped = true
					k.stopErr = k.deadlockError()
				}
				break
			}
			k.running = false
		}
	}
	k.releaseAbandoned()
	return k.stopErr
}

// fire pops and runs the event at the head of the queue (e must be the
// live head returned by nextEvent).
func (k *Kernel) fire(e *Event) {
	k.events.pop()
	k.now = e.At
	if e.h != nil {
		h, arg := e.h, e.arg
		k.recycleEvent(e)
		h.OnEvent(k.now, arg)
	} else {
		e.fn()
	}
}

// stepControlled runs one controlled-mode dispatch: t is the earliest
// runnable thread and e the earliest event (nil if none), with e.At >
// t.clock already established by the caller.
func (k *Kernel) stepControlled(t *Thread, e *Event) {
	c := k.sched(k.readyView())
	if c == nil {
		if e != nil {
			k.fire(e)
			return
		}
		// The scheduler declined with no events pending: nothing can
		// make progress. Report it like any other deadlock so the
		// blocked-thread inventory reaches the caller.
		k.running = false
		if !k.stopped {
			k.stopped = true
			k.stopErr = k.deadlockError()
		}
		return
	}
	if c.state != threadReady || c.readyIndex < 0 {
		panic("sim: scheduler picked a non-runnable thread")
	}
	// Delaying a thread costs it wall-clock: warp a lagging pick forward
	// to the kernel's current time so simulated time stays monotone.
	if c.clock < k.now {
		c.clock = k.now
		k.readyFix(c)
	}
	// Events due at or before the pick's (possibly warped) clock would
	// precede its step under timestamp dispatch; fire them first.
	for k.running {
		ev := k.nextEvent()
		if ev == nil || ev.At > c.clock {
			break
		}
		k.fire(ev)
	}
	if !k.running || c.state != threadReady {
		return
	}
	k.dispatch(c)
}

// dispatch resumes t until its next yield point, retiring it from the
// scheduler once its body has returned.
func (k *Kernel) dispatch(t *Thread) {
	k.now = t.clock
	if !t.coro.resume() {
		t.state = threadDone
		k.readyRemove(t)
	}
}

// recycleEvent returns a fired ScheduleHandler event to the pool.
func (k *Kernel) recycleEvent(e *Event) {
	e.h, e.arg = nil, 0
	k.eventPool = append(k.eventPool, e)
}

// nextEvent returns the earliest live event, discarding cancelled ones.
func (k *Kernel) nextEvent() *Event {
	for {
		e := k.events.peek()
		if e == nil {
			return nil
		}
		if e.cancelled {
			k.events.pop()
			k.cancelled--
			continue
		}
		return e
	}
}

func (k *Kernel) anyLive() bool {
	for _, t := range k.threads {
		if t.state != threadDone {
			return true
		}
	}
	return false
}

// AnyLive reports whether any spawned thread has not yet finished.
// Self-rescheduling watcher events (the machine's cancellation poll)
// use it to stop re-arming once the simulation proper is over — a
// perpetual event would keep the queue non-empty and Run would never
// return.
func (k *Kernel) AnyLive() bool { return k.anyLive() }

func (k *Kernel) deadlockError() error {
	var blocked []string
	for _, t := range k.threads {
		if t.state == threadBlocked {
			blocked = append(blocked, fmt.Sprintf("%s@%v (%s)", t.name, t.clock, t.blockReason))
		}
	}
	sort.Strings(blocked)
	return fmt.Errorf("sim: deadlock, no runnable threads or events; blocked: [%s]", strings.Join(blocked, ", "))
}

// releaseAbandoned aborts the coroutines of threads that never finished
// (after a Stop or deadlock) so they do not leak: blocking-style bodies
// unwind through their defers via the errKernelStopped sentinel.
func (k *Kernel) releaseAbandoned() {
	for _, t := range k.threads {
		if t.state == threadDone {
			continue
		}
		t.coro.abort()
		t.state = threadDone
		k.readyRemove(t)
	}
}

// mustYield reports whether a thread whose clock just advanced to c must
// hand control back to the kernel before touching shared state: true when
// an event or another ready thread is due strictly before c (events tie-
// break ahead of threads, so an event at exactly c also forces a yield).
// The ready heap makes this O(1): if t itself is the heap minimum, every
// other runnable thread is at (clock, id) ≥ t's and none can be due.
func (k *Kernel) mustYield(t *Thread, c Time) bool {
	if e := k.nextEvent(); e != nil && e.At <= c {
		return true
	}
	r := k.ready.peek()
	return r != nil && r != t && r.clock < c
}

// readyAdd marks t runnable in the scheduler index.
func (k *Kernel) readyAdd(t *Thread) {
	k.ready.push(t)
}

// readyRemove drops t from the scheduler index (block, completion).
func (k *Kernel) readyRemove(t *Thread) {
	if t.readyIndex >= 0 {
		k.ready.remove(t.readyIndex)
	}
}

// readyFix restores heap order after t's clock moved while runnable.
func (k *Kernel) readyFix(t *Thread) {
	if t.readyIndex >= 0 {
		k.ready.fix(t.readyIndex)
	}
}

// PauseAll advances every unfinished thread's clock to at least `until`.
// The PMEM-Spec speculation buffer uses this to model "all cores pause
// and resume after the speculation window" when the buffer is full.
func (k *Kernel) PauseAll(until Time) {
	for _, t := range k.threads {
		if t.state == threadDone {
			continue
		}
		if t.clock < until {
			t.clock = until
		}
	}
	// Clocks moved wholesale; rebuild the ready index in one pass rather
	// than sifting entries one by one.
	k.ready.init()
}

// readyQueue is a min-heap of runnable threads ordered by (clock, id) —
// the dispatch order. Each thread carries its heap index so block/unblock
// and clock advances are O(log n) instead of an O(n) scan per dispatch.
// The heap is hand-rolled (no container/heap interface indirection):
// sift operations on the Fig 10 hot path are direct slice code.
type readyQueue []*Thread

func (q readyQueue) less(i, j int) bool {
	if q[i].clock != q[j].clock {
		return q[i].clock < q[j].clock
	}
	return q[i].id < q[j].id
}

func (q readyQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].readyIndex = i
	q[j].readyIndex = j
}

func (q readyQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// down sifts i toward the leaves; it reports whether i moved.
func (q readyQueue) down(i int) bool {
	start := i
	n := len(q)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q.swap(i, m)
		i = m
	}
	return i > start
}

func (q *readyQueue) push(t *Thread) {
	t.readyIndex = len(*q)
	*q = append(*q, t)
	q.up(t.readyIndex)
}

func (q *readyQueue) remove(i int) {
	old := *q
	n := len(old) - 1
	if i != n {
		old.swap(i, n)
	}
	old[n].readyIndex = -1
	old[n] = nil
	*q = old[:n]
	if i != n {
		if !(*q).down(i) {
			(*q).up(i)
		}
	}
}

func (q readyQueue) fix(i int) {
	if !q.down(i) {
		q.up(i)
	}
}

func (q readyQueue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q readyQueue) peek() *Thread {
	if len(q) == 0 {
		return nil
	}
	return q[0]
}
