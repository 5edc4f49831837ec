package sim

import (
	"fmt"
	"testing"
)

// benchmarkDispatch measures the kernel's dispatch loop: every thread
// advances its clock by one cycle per step, so each Advance crosses
// another thread's clock and forces a full yield/resume round trip plus
// a scheduler decision — the Fig 10 many-core hot path
// (`go test -bench 'Dispatch(8|64)$' ./internal/sim`).
func benchmarkDispatch(b *testing.B, threads, steps int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for n := 0; n < threads; n++ {
			k.Spawn(fmt.Sprintf("w%d", n), 0, func(t *Thread) {
				for s := 0; s < steps; s++ {
					t.Advance(1)
				}
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*threads*steps), "ns/dispatch")
}

func BenchmarkDispatch8(b *testing.B)  { benchmarkDispatch(b, 8, 500) }
func BenchmarkDispatch64(b *testing.B) { benchmarkDispatch(b, 64, 500) }

// benchWake is the self-service event pattern of a PM fetch: the event
// wakes the thread that scheduled it.
type benchWake struct{ t *Thread }

func (h *benchWake) OnEvent(at Time, arg uint64) { h.t.Wake(at) }

// benchmarkSelfEvent measures one thread doing back-to-back self-service
// round trips (the pm-fetch shape). inline=true takes the
// TryInlineEvent fast path; inline=false schedules and blocks — the
// difference is the cost of a coroutine suspend/resume plus an event
// heap push/pop per operation.
func benchmarkSelfEvent(b *testing.B, inline bool) {
	b.ReportAllocs()
	const rounds = 1000
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		k.Spawn("w", 0, func(t *Thread) {
			h := &benchWake{t: t}
			for s := 0; s < rounds; s++ {
				at := t.Clock() + 10
				if inline && t.TryInlineEvent(at) {
					t.FinishInlineEvent(at)
					continue
				}
				k.ScheduleHandler(at, h, 0)
				t.Block("bench-fetch")
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rounds), "ns/roundtrip")
}

func BenchmarkSelfEventBlocked(b *testing.B) { benchmarkSelfEvent(b, false) }
func BenchmarkSelfEventInline(b *testing.B)  { benchmarkSelfEvent(b, true) }

// benchmarkDispatchBlocked measures scheduling with a large population of
// blocked threads: only two threads are runnable, the rest sit blocked
// (as during lock convoys or PM-fetch stalls). The scheduler must not
// pay for the blocked threads on every dispatch.
func benchmarkDispatchBlocked(b *testing.B, blocked, steps int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		for n := 0; n < blocked; n++ {
			k.Spawn(fmt.Sprintf("b%d", n), 0, func(t *Thread) {
				t.Block("bench-parked")
			})
		}
		for n := 0; n < 2; n++ {
			k.Spawn(fmt.Sprintf("w%d", n), 0, func(t *Thread) {
				for s := 0; s < steps; s++ {
					t.Advance(1)
				}
			})
		}
		k.Schedule(Time(steps+1), func() {
			for _, t := range k.Threads()[:blocked] {
				t.Wake(Time(steps + 1))
			}
		})
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*steps), "ns/dispatch")
}

func BenchmarkDispatch62Blocked(b *testing.B) { benchmarkDispatchBlocked(b, 62, 500) }

// BenchmarkEventChurn measures the event queue under schedule/cancel
// pressure: half of the scheduled events are cancelled before they fire,
// as timeout-style events are in the controller models.
func BenchmarkEventChurn(b *testing.B) {
	b.ReportAllocs()
	const batch = 1024
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		fired := 0
		for n := 0; n < batch; n++ {
			e := k.Schedule(Time(n+1), func() { fired++ })
			if n%2 == 1 {
				e.Cancel()
			}
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
		if fired != batch/2 {
			b.Fatalf("fired = %d, want %d", fired, batch/2)
		}
	}
}
