package sim

import (
	"fmt"
	"iter"
)

// goCoro runs a thread body inside a runtime pull-coroutine
// (iter.Pull). Resuming it is a direct coroutine switch on the kernel's
// goroutine — no channel operations, no scheduler round trip. The body
// keeps its natural stack, so every yield point (deep inside machine
// operations included) suspends the whole call chain and resumes it
// exactly where it left off; the yielded value carries nothing, because
// the body applies its own clock and ready/blocked bookkeeping before
// it yields.
type goCoro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

func newGoCoro(t *Thread, body func(*Thread)) *goCoro {
	c := &goCoro{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer threadExit(t)
		body(t)
	})
	return c
}

// threadExit is the body epilogue: it swallows the abandonment sentinel
// and converts any real panic in simulated code into the run's stop
// reason (first reason wins), instead of letting it tear through the
// kernel dispatch loop.
func threadExit(t *Thread) {
	if r := recover(); r != nil {
		if _, ok := r.(errKernelStopped); !ok {
			k := t.kernel
			k.running = false
			if !k.stopped {
				k.stopped = true
				k.stopErr = fmt.Errorf("sim: thread %q panicked: %v", t.name, r)
			}
		}
	}
}

// resume runs the body until its next yield point. It reports false
// once the body has returned (or unwound after a panic).
func (c *goCoro) resume() bool {
	_, ok := c.next()
	return ok
}

// abort releases an abandoned body: stop makes the suspended yield
// return false, the body panics errKernelStopped, unwinds through its
// defers, and the coroutine finishes before stop returns. Never-started
// and already-finished coroutines are no-ops.
func (c *goCoro) abort() { c.stop() }
