package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestTimeConversions(t *testing.T) {
	cases := []struct {
		ns  int64
		cyc Time
	}{
		{0, 0}, {1, 2}, {2, 4}, {20, 40}, {94, 188}, {175, 350}, {160, 320},
	}
	for _, c := range cases {
		if got := NS(c.ns); got != c.cyc {
			t.Errorf("NS(%d) = %d, want %d", c.ns, got, c.cyc)
		}
		if got := c.cyc.Nanoseconds(); got != c.ns {
			t.Errorf("(%d).Nanoseconds() = %d, want %d", c.cyc, got, c.ns)
		}
	}
	if s := Time(4).Seconds(); s != 2e-9 {
		t.Errorf("Seconds() = %g, want 2e-9", s)
	}
}

func TestSingleThreadAdvance(t *testing.T) {
	k := NewKernel()
	var end Time
	k.Spawn("t0", 0, func(th *Thread) {
		th.Advance(10)
		th.Advance(5)
		th.AdvanceTo(100)
		th.AdvanceTo(50) // no-op, already past
		end = th.Clock()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 100 {
		t.Errorf("final clock = %d, want 100", end)
	}
}

func TestEventsFireInOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	k.Schedule(30, func() { order = append(order, 3) })
	k.Schedule(10, func() { order = append(order, 1) })
	k.Schedule(20, func() { order = append(order, 2) })
	k.Schedule(10, func() { order = append(order, 11) }) // same time: creation order
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestEventBeforeThreadAtSameTime(t *testing.T) {
	// An event at time T must fire before a thread whose clock reaches T
	// observes shared state.
	k := NewKernel()
	var sawEvent bool
	var observed bool
	k.Schedule(50, func() { sawEvent = true })
	k.Spawn("t0", 0, func(th *Thread) {
		th.Advance(50)
		observed = sawEvent
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !observed {
		t.Error("thread at t=50 did not observe event scheduled at t=50")
	}
}

func TestThreadsInterleaveByClock(t *testing.T) {
	k := NewKernel()
	var trace []string
	k.Spawn("a", 0, func(th *Thread) {
		for i := 0; i < 3; i++ {
			trace = append(trace, fmt.Sprintf("a%d@%d", i, th.Clock()))
			th.Advance(10)
		}
	})
	k.Spawn("b", 5, func(th *Thread) {
		for i := 0; i < 3; i++ {
			trace = append(trace, fmt.Sprintf("b%d@%d", i, th.Clock()))
			th.Advance(10)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "a0@0 b0@5 a1@10 b1@15 a2@20 b2@25"
	if got := strings.Join(trace, " "); got != want {
		t.Errorf("trace = %q, want %q", got, want)
	}
}

func TestCancelledEventDoesNotFire(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(10, func() { fired = true })
	e.Cancel()
	if !e.Cancelled() {
		t.Error("Cancelled() = false after Cancel")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestMutexMutualExclusionAndFIFO(t *testing.T) {
	k := NewKernel()
	var m Mutex
	var order []string
	inCS := 0
	body := func(name string, delay Time) func(*Thread) {
		return func(th *Thread) {
			th.Advance(delay)
			m.Lock(th)
			inCS++
			if inCS != 1 {
				t.Errorf("%s: %d threads in critical section", name, inCS)
			}
			order = append(order, name)
			th.Advance(100)
			inCS--
			m.Unlock(th)
		}
	}
	k.Spawn("a", 0, body("a", 0))
	k.Spawn("b", 0, body("b", 1))
	k.Spawn("c", 0, body("c", 2))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abc" {
		t.Errorf("critical-section order = %q, want abc (FIFO)", got)
	}
	if m.Acquisitions != 3 || m.Contended != 2 {
		t.Errorf("acquisitions=%d contended=%d, want 3 and 2", m.Acquisitions, m.Contended)
	}
	if m.Holder() != nil {
		t.Error("mutex still held after run")
	}
}

func TestMutexHandoffAdvancesClock(t *testing.T) {
	k := NewKernel()
	var m Mutex
	var releaseAt, acquireAt Time
	k.Spawn("holder", 0, func(th *Thread) {
		m.Lock(th)
		th.Advance(1000)
		releaseAt = th.Clock()
		m.Unlock(th)
	})
	k.Spawn("waiter", 0, func(th *Thread) {
		th.Advance(LockAcquireCost + 1) // ensure holder wins the lock
		m.Lock(th)
		acquireAt = th.Clock()
		m.Unlock(th)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if acquireAt < releaseAt {
		t.Errorf("waiter acquired at %d before release at %d", acquireAt, releaseAt)
	}
}

func TestTryLock(t *testing.T) {
	k := NewKernel()
	var m Mutex
	var got1, got2 bool
	k.Spawn("a", 0, func(th *Thread) {
		got1 = m.TryLock(th)
		th.Advance(500)
		m.Unlock(th)
	})
	k.Spawn("b", 10, func(th *Thread) {
		got2 = m.TryLock(th) // while a holds it
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !got1 || got2 {
		t.Errorf("TryLock results = %v, %v; want true, false", got1, got2)
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	k := NewKernel()
	var m Mutex
	k.Spawn("a", 0, func(th *Thread) {
		m.Unlock(th)
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("expected panic error from non-owner unlock, got %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	var m1, m2 Mutex
	k.Spawn("a", 0, func(th *Thread) {
		m1.Lock(th)
		th.Advance(100)
		m2.Lock(th)
	})
	k.Spawn("b", 0, func(th *Thread) {
		m2.Lock(th)
		th.Advance(100)
		m1.Lock(th)
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("expected deadlock error, got %v", err)
	}
}

func TestStopAbandonsThreads(t *testing.T) {
	k := NewKernel()
	var reached int32
	k.Spawn("stopper", 0, func(th *Thread) {
		th.Advance(10)
		k.Stop(errors.New("enough"))
		th.Yield()
		atomic.AddInt32(&reached, 1) // must not run
	})
	k.Spawn("other", 0, func(th *Thread) {
		for i := 0; i < 1000; i++ {
			th.Advance(5)
		}
		atomic.AddInt32(&reached, 1)
	})
	err := k.Run()
	if err == nil || err.Error() != "enough" {
		t.Fatalf("Run() = %v, want 'enough'", err)
	}
	if atomic.LoadInt32(&reached) != 0 {
		t.Error("abandoned thread code ran past Stop")
	}
}

// TestAbandonedThreadsDoNotLeak: however Run ends, every coroutine it
// leaves behind is released before Run returns — stepped bodies unwind
// through their defers, and threads that were spawned but never stepped
// release their (not yet started) coroutine too.
func TestAbandonedThreadsDoNotLeak(t *testing.T) {
	cases := []struct {
		name    string
		wantErr string
		late    bool // also spawn threads Run never reaches
		spawn   func(k *Kernel, unwound *int)
	}{
		{"stop", "enough", true, func(k *Kernel, unwound *int) {
			k.Spawn("stopper", 0, func(th *Thread) {
				defer func() { *unwound++ }()
				th.Advance(10)
				k.Stop(errors.New("enough"))
				th.Yield()
			})
			k.Spawn("runner", 0, func(th *Thread) {
				defer func() { *unwound++ }()
				for {
					th.Advance(3)
				}
			})
		}},
		{"deadlock", "deadlock", false, func(k *Kernel, unwound *int) {
			for i := 0; i < 3; i++ {
				k.Spawn(fmt.Sprintf("waiter%d", i), Time(i), func(th *Thread) {
					defer func() { *unwound++ }()
					th.Block("forever")
				})
			}
		}},
		{"panic", "boom", true, func(k *Kernel, unwound *int) {
			k.Spawn("panicker", 0, func(th *Thread) {
				defer func() { *unwound++ }()
				th.Advance(1)
				panic("boom")
			})
			k.Spawn("blocked", 0, func(th *Thread) {
				defer func() { *unwound++ }()
				th.Block("never woken")
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := NewKernel()
			unwound := 0
			tc.spawn(k, &unwound)
			stepped := len(k.Threads())
			// Spawned far in the future: Run ends before reaching them.
			for i := 0; tc.late && i < 4; i++ {
				k.Spawn(fmt.Sprintf("late%d", i), 1<<40, func(th *Thread) {
					t.Error("never-stepped thread ran")
				})
			}
			if err := k.Run(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Run() = %v, want error containing %q", err, tc.wantErr)
			}
			if unwound != stepped {
				t.Errorf("%d of %d stepped bodies unwound", unwound, stepped)
			}
			if after := runtime.NumGoroutine(); after != before {
				t.Errorf("goroutines: %d before spawning, %d after Run", before, after)
			}
		})
	}
}

func TestPauseAll(t *testing.T) {
	k := NewKernel()
	var clocks [2]Time
	k.Schedule(10, func() { k.PauseAll(500) })
	k.Spawn("a", 0, func(th *Thread) {
		th.Advance(20) // crosses the event; gets paused
		clocks[0] = th.Clock()
	})
	k.Spawn("b", 0, func(th *Thread) {
		th.Advance(15)
		clocks[1] = th.Clock()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range clocks {
		if c < 500 {
			t.Errorf("thread %d clock = %d, want ≥ 500 after PauseAll", i, c)
		}
	}
}

func TestBarrier(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(3)
	var after [3]Time
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn(fmt.Sprintf("t%d", i), 0, func(th *Thread) {
			th.Advance(Time(10 * (i + 1)))
			b.Wait(th)
			after[i] = th.Clock()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range after {
		if after[i] != 30 {
			t.Errorf("thread %d resumed at %d, want 30 (latest arrival)", i, after[i])
		}
	}
	if b.Generation != 1 {
		t.Errorf("generation = %d, want 1", b.Generation)
	}
}

func TestBarrierReuse(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(2)
	rounds := 0
	for i := 0; i < 2; i++ {
		k.Spawn(fmt.Sprintf("t%d", i), 0, func(th *Thread) {
			for r := 0; r < 5; r++ {
				th.Advance(10)
				b.Wait(th)
			}
			if th.ID() == 0 {
				rounds = 5
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if rounds != 5 || b.Generation != 5 {
		t.Errorf("rounds=%d generation=%d, want 5 and 5", rounds, b.Generation)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		k := NewKernel()
		var m Mutex
		var trace []string
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn(fmt.Sprintf("t%d", i), Time(i), func(th *Thread) {
				for j := 0; j < 20; j++ {
					m.Lock(th)
					trace = append(trace, fmt.Sprintf("%d:%d@%d", i, j, th.Clock()))
					th.Advance(Time(7 * (i + 1)))
					m.Unlock(th)
					th.Advance(3)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(trace, ",")
	}
	a, b := run(), run()
	if a != b {
		t.Error("two identical runs produced different traces")
	}
}

func TestNegativeAdvancePanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("a", 0, func(th *Thread) {
		th.Advance(-1)
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Errorf("expected panic error, got %v", err)
	}
}

func TestScheduleFromThread(t *testing.T) {
	k := NewKernel()
	var fireTime Time
	var threadSaw Time
	k.Spawn("a", 0, func(th *Thread) {
		k.Schedule(th.Clock()+100, func() { fireTime = k.Now() })
		th.Advance(200)
		threadSaw = fireTime
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fireTime != 100 || threadSaw != 100 {
		t.Errorf("fireTime=%d threadSaw=%d, want 100, 100", fireTime, threadSaw)
	}
}

// TestStopFirstReasonWins: the first Stop reason is the run's outcome —
// later Stop calls and even a subsequent thread panic cannot overwrite
// it. In particular Stop(nil) is a clean shutdown, not an empty slot a
// later error may fill.
func TestStopFirstReasonWins(t *testing.T) {
	t.Run("nil-then-panic", func(t *testing.T) {
		k := NewKernel()
		k.Spawn("w", 0, func(th *Thread) {
			th.Advance(1)
			k.Stop(nil)
			panic("late panic after clean stop")
		})
		if err := k.Run(); err != nil {
			t.Errorf("Run() = %v, want nil (first stop reason)", err)
		}
	})
	t.Run("err-then-err", func(t *testing.T) {
		k := NewKernel()
		first := errors.New("first")
		k.Spawn("w", 0, func(th *Thread) {
			k.Stop(first)
			k.Stop(errors.New("second"))
		})
		if err := k.Run(); err != first {
			t.Errorf("Run() = %v, want first", err)
		}
	})
	t.Run("nil-then-err", func(t *testing.T) {
		k := NewKernel()
		k.Spawn("w", 0, func(th *Thread) {
			k.Stop(nil)
			k.Stop(errors.New("second"))
		})
		if err := k.Run(); err != nil {
			t.Errorf("Run() = %v, want nil", err)
		}
	})
	t.Run("panic-still-reported-without-stop", func(t *testing.T) {
		k := NewKernel()
		k.Spawn("w", 0, func(th *Thread) {
			panic("boom")
		})
		err := k.Run()
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("Run() = %v, want panic error", err)
		}
	})
	t.Run("reusable-after-stop", func(t *testing.T) {
		// A second Run on the same kernel starts with a clean stop slate.
		k := NewKernel()
		k.Spawn("w", 0, func(th *Thread) { k.Stop(errors.New("once")) })
		if err := k.Run(); err == nil {
			t.Fatal("first Run returned nil")
		}
		done := false
		k.Schedule(5, func() { done = true })
		if err := k.Run(); err != nil {
			t.Errorf("second Run() = %v, want nil", err)
		}
		if !done {
			t.Error("second Run did not fire the event")
		}
	})
}

// TestReadySchedulingMatchesCreationOrderOnTies: threads at equal clocks
// dispatch in creation order — the ready heap must preserve the scan
// order it replaced.
func TestReadySchedulingMatchesCreationOrderOnTies(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		k.Spawn(fmt.Sprintf("t%d", i), 0, func(th *Thread) {
			order = append(order, i)
			th.Advance(10) // all tie again at 10
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Thread 7 is last to advance to the tie at 10: no other ready
	// thread is then strictly earlier, so it continues without yielding
	// (exactly the pre-heap scan semantics) before 0–6 resume in id order.
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 7, 0, 1, 2, 3, 4, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestEventCompaction: cancelling most of a large event population
// triggers the bulk compaction and the survivors still fire in order.
func TestEventCompaction(t *testing.T) {
	k := NewKernel()
	var fired []Time
	var events []*Event
	for i := 0; i < 256; i++ {
		at := Time(i + 1)
		events = append(events, k.Schedule(at, func() { fired = append(fired, at) }))
	}
	for i, e := range events {
		if i%4 != 0 {
			e.Cancel()
		}
	}
	if len(k.events) < 256 && k.cancelled == 0 {
		// bulk compaction ran — expected with 3/4 cancelled
	} else if len(k.events) == 256 {
		t.Fatalf("no compaction: %d events, %d cancelled", len(k.events), k.cancelled)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 64 {
		t.Fatalf("fired %d events, want 64", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatal("events fired out of order after compaction")
		}
	}
}
