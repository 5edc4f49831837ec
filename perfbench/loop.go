package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"pmemspec/internal/mc"
)

// job is one closed-loop unit of work: one call into a layer's public
// entry point plus the benchmark's check of what it returned.
type job struct {
	kind  string // the public call the job times, e.g. "harness.Run"
	key   string // the job's cell; the same cell recurs in every round
	round int
	run   func(c jobCtx) result
}

// jobCtx hands a running job its tracer and root span.
type jobCtx struct {
	tr   *tracer
	id   int
	root int
}

// call times fn as a child span of the job named name.
func (c jobCtx) call(name string, fn func()) {
	sp := c.tr.begin(name, c.root, c.id)
	fn()
	c.tr.end(sp)
}

// result is what a job reports back to the loop.
type result struct {
	err    error  // the job failed: run error, check failure or refutation
	record []byte // canonical simulated outcome, hashed into the digest
	follow []*job // jobs this one made possible (discovery → its trials)
	grid   *gridCell
	cell   *mc.CellResult
}

// finished is a completed job with its host time.
type finished struct {
	job *job
	res result
	dur time.Duration
}

// loopStats is one closed-loop phase's record.
type loopStats struct {
	jobs       []finished
	rounds     int
	elapsed    time.Duration
	allocBytes uint64
}

func (s loopStats) failed() int {
	n := 0
	for _, f := range s.jobs {
		if f.res.err != nil {
			n++
		}
	}
	return n
}

// durationsMS returns every job's host time in milliseconds.
func (s loopStats) durationsMS() []float64 {
	out := make([]float64, len(s.jobs))
	for i, f := range s.jobs {
		out[i] = float64(f.dur.Nanoseconds()) / 1e6
	}
	return out
}

// loop is a closed loop: each worker takes its next job only when its
// previous job has finished. Jobs come in rounds, each round the
// workload's full cell set; rounds are added until the phase has run
// for its duration and holds minJobs jobs (at least one round), and the
// last round is always completed so every phase runs whole rounds.
type loop struct {
	wl      *benchWorkload
	seed    int64
	minTime time.Duration
	minJobs int

	mu        sync.Mutex
	cond      *sync.Cond
	start     time.Time
	queue     []*job
	inflight  int
	scheduled int
	rounds    int
	stopping  bool
	nextID    int
	last      map[string]time.Duration // the latest host time of each cell
	done      []finished
}

// runLoop runs wl's rounds on a pool of workers until the phase is
// over and returns what it measured. tr may be nil (untraced).
func runLoop(wl *benchWorkload, seed int64, minTime time.Duration, minJobs, workers int, tr *tracer) loopStats {
	l := &loop{wl: wl, seed: seed, minTime: minTime, minJobs: minJobs, last: map[string]time.Duration{}}
	l.cond = sync.NewCond(&l.mu)
	alloc0 := heapAllocBytes()
	l.start = time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, id := l.next()
				if j == nil {
					return
				}
				root := tr.begin("job."+j.kind, -1, id)
				t0 := time.Now()
				res := runJob(j, jobCtx{tr: tr, id: id, root: root})
				dur := time.Since(t0)
				tr.end(root)
				l.finish(finished{job: j, res: res, dur: dur})
			}
		}()
	}
	wg.Wait()
	return loopStats{
		jobs:       l.done,
		rounds:     l.rounds,
		elapsed:    time.Since(l.start),
		allocBytes: heapAllocBytes() - alloc0,
	}
}

// runJob runs j, turning a panic into a failed job.
func runJob(j *job, c jobCtx) (res result) {
	defer func() {
		if r := recover(); r != nil {
			res = result{err: fmt.Errorf("%s %s panicked: %v", j.kind, j.key, r)}
		}
	}()
	return j.run(c)
}

// next hands out the next job, adding a round when the queue is empty
// and the phase is not over. It returns nil once the phase is over and
// no running job can add more.
func (l *loop) next() (*job, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if len(l.queue) > 0 {
			j := l.queue[0]
			l.queue = l.queue[1:]
			l.inflight++
			l.nextID++
			return j, l.nextID - 1
		}
		if !l.stopping && (l.rounds == 0 || time.Since(l.start) < l.minTime || l.scheduled < l.minJobs) {
			jobs := l.wl.round(l.seed, l.rounds)
			orderRound(jobs, newRand(deriveSeed(l.seed, "order", l.rounds)), l.last)
			l.rounds++
			l.scheduled += len(jobs)
			l.queue = append(l.queue, jobs...)
			continue
		}
		l.stopping = true
		if l.inflight == 0 {
			return nil, 0
		}
		l.cond.Wait()
	}
}

// finish records a completed job and queues the jobs it made possible.
func (l *loop) finish(f finished) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.done = append(l.done, f)
	l.last[f.job.key] = f.dur
	l.queue = append(l.queue, f.res.follow...)
	l.scheduled += len(f.res.follow)
	l.inflight--
	l.cond.Broadcast()
}

// orderRound shuffles a round with rng, then puts cells by their
// latest host time, longest first, with cells not yet timed ahead of
// all. Longest-first keeps a long cell from running alone at the end of
// a phase while the other workers idle.
func orderRound(jobs []*job, rng *rand.Rand, last map[string]time.Duration) {
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	const unknown = time.Duration(1<<63 - 1)
	cost := func(j *job) time.Duration {
		if d, ok := last[j.key]; ok {
			return d
		}
		return unknown
	}
	sort.SliceStable(jobs, func(a, b int) bool { return cost(jobs[a]) > cost(jobs[b]) })
}

// deriveSeed derives an independent seed for one use of the run seed.
func deriveSeed(seed int64, use string, n int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(n+1)*0xBF58476D1CE4E5B9
	for _, c := range []byte(use) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	h ^= h >> 31
	return int64(h &^ (1 << 63))
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// heapAllocBytes is the Go heap's cumulative allocation count in bytes.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
