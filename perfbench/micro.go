package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"pmemspec/internal/cache"
	"pmemspec/internal/core"
	"pmemspec/internal/fatomic"
	"pmemspec/internal/harness"
	"pmemspec/internal/machine"
	"pmemspec/internal/mem"
	"pmemspec/internal/persist"
	"pmemspec/internal/pmc"
	"pmemspec/internal/ppath"
	"pmemspec/internal/sim"
	"pmemspec/internal/workload"
)

// Micro-loops time single layers through their exported functions, on
// inputs drawn from the run seed. Each loop runs microReps times; a
// result reports the median time per operation and the mean heap bytes
// and objects allocated per operation (-1 where not measured).
const microReps = 5

// microResult is one micro-loop's per-operation cost.
type microResult struct {
	Name     string  `json:"name"` // the per-layer metric name
	NsOp     float64 `json:"ns_op"`
	BytesOp  float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
	Ops      int     `json:"ops_per_rep"`
}

// meter accumulates host time and heap allocation over the timed parts
// of one repetition.
type meter struct {
	ns, bytes, objs uint64
	clockOnly       bool // allocations not measured
	t0              time.Time
	ms0             runtime.MemStats
}

func (m *meter) start() {
	runtime.ReadMemStats(&m.ms0)
	m.t0 = time.Now()
}

// lap times fn with the clock alone, for an operation timed one call at
// a time, where reading allocation counts around each call would cost
// far more than the call; the meter then reports no allocation figures.
func (m *meter) lap(fn func()) {
	t0 := time.Now()
	fn()
	m.ns += uint64(time.Since(t0).Nanoseconds())
	m.clockOnly = true
}

func (m *meter) stop() {
	m.ns += uint64(time.Since(m.t0).Nanoseconds())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.bytes += ms.TotalAlloc - m.ms0.TotalAlloc
	m.objs += ms.Mallocs - m.ms0.Mallocs
}

// micro runs body microReps times; each call performs ops operations
// and times them with the meter it is given.
func micro(name string, ops int, body func(m *meter) error) (microResult, error) {
	rs, err := microSet([]string{name}, ops, func(ms []meter) error { return body(&ms[0]) })
	return rs[0], err
}

// microSet is micro for a body that times several operations, each
// ops times per call, with one meter per name.
func microSet(names []string, ops int, body func(ms []meter) error) ([]microResult, error) {
	nsOps := make([][]float64, len(names))
	bytes := make([]uint64, len(names))
	objs := make([]uint64, len(names))
	clockOnly := make([]bool, len(names))
	for r := 0; r < microReps; r++ {
		ms := make([]meter, len(names))
		if err := body(ms); err != nil {
			return make([]microResult, len(names)), fmt.Errorf("%s: %w", strings.Join(names, ", "), err)
		}
		for i, m := range ms {
			nsOps[i] = append(nsOps[i], float64(m.ns)/float64(ops))
			bytes[i] += m.bytes
			objs[i] += m.objs
			clockOnly[i] = clockOnly[i] || m.clockOnly
		}
	}
	n := float64(ops * microReps)
	out := make([]microResult, len(names))
	for i, name := range names {
		out[i] = microResult{Name: name, NsOp: median(nsOps[i]), BytesOp: float64(bytes[i]) / n,
			AllocsOp: float64(objs[i]) / n, Ops: ops}
		if clockOnly[i] {
			out[i].BytesOp, out[i].AllocsOp = -1, -1
		}
	}
	return out, nil
}

// designSlug is a design's name as used in metric names.
func designSlug(d machine.Design) string {
	switch d {
	case machine.IntelX86:
		return "intelx86"
	case machine.PMEMSpec:
		return "pmemspec"
	case machine.Strand:
		return "strand"
	}
	return strings.ToLower(d.String())
}

// blocks returns n seeded block-aligned addresses in the first span
// bytes of the default PM region.
func blocks(rng *rand.Rand, n int, span uint64) []mem.Addr {
	out := make([]mem.Addr, n)
	for i := range out {
		out[i] = mem.DefaultBase + mem.Addr(uint64(rng.Int63n(int64(span/mem.BlockSize)))*mem.BlockSize)
	}
	return out
}

const regionBytes = 64 << 20 // the machines' default PM region

// runMicro runs every micro-loop and returns the results in a fixed
// order, stopping at the first loop that fails.
func runMicro(seed int64) ([]microResult, error) {
	rng := newRand(deriveSeed(seed, "micro", 0))
	loops := []func() ([]microResult, error){
		func() ([]microResult, error) { return one(microDispatch()) },
		func() ([]microResult, error) { return one(microAdvance()) },
		func() ([]microResult, error) { return microCache(rng) },
		func() ([]microResult, error) { return one(microWPQ(rng)) },
		func() ([]microResult, error) { return one(microPBuf(rng)) },
		func() ([]microResult, error) { return one(microBloom(rng)) },
		func() ([]microResult, error) { return one(microPPath(rng)) },
		func() ([]microResult, error) { return microCore(rng) },
		func() ([]microResult, error) { return microMachineOps(rng) },
		func() ([]microResult, error) { return microConstruct(rng) },
		func() ([]microResult, error) { return microRecover(seed) },
	}
	var out []microResult
	for _, l := range loops {
		rs, err := l()
		if err != nil {
			return out, err
		}
		out = append(out, rs...)
	}
	return out, nil
}

func one(r microResult, err error) ([]microResult, error) {
	if err != nil {
		return nil, err
	}
	return []microResult{r}, nil
}

// microDispatch: 8 kernel threads each advancing one cycle per step, so
// every step crosses another thread's clock and forces a dispatch.
func microDispatch() (microResult, error) {
	const threads, steps = 8, 4000
	return micro("sim.dispatch_ns", threads*steps, func(m *meter) error {
		k := sim.NewKernel()
		for n := 0; n < threads; n++ {
			k.Spawn(fmt.Sprintf("w%d", n), 0, func(t *sim.Thread) {
				for s := 0; s < steps; s++ {
					t.Advance(1)
				}
			})
		}
		m.start()
		err := k.Run()
		m.stop()
		return err
	})
}

// microAdvance: one thread advancing alone, the no-dispatch fast path.
func microAdvance() (microResult, error) {
	const steps = 200_000
	return micro("sim.advance_ns", steps, func(m *meter) error {
		k := sim.NewKernel()
		k.Spawn("w", 0, func(t *sim.Thread) {
			m.start()
			for s := 0; s < steps; s++ {
				t.Advance(1)
			}
			m.stop()
		})
		return k.Run()
	})
}

// microCache times hierarchy loads and stores on a working set inside
// the L1 and on one spread over the whole region, beyond the LLC.
func microCache(rng *rand.Rand) ([]microResult, error) {
	const ops = 50_000
	cfg := machine.DefaultConfig(machine.IntelX86, 1)
	sets := []struct {
		name string
		addr []mem.Addr
	}{
		{"l1", blocks(rng, ops, uint64(cfg.L1Bytes/2))},
		{"far", blocks(rng, ops, regionBytes)},
	}
	var out []microResult
	for _, set := range sets {
		for _, store := range []bool{false, true} {
			op := "load"
			if store {
				op = "store"
			}
			addr := set.addr
			r, err := micro("cache."+op+"_ns."+set.name, ops, func(m *meter) error {
				h := cache.NewHierarchy(1, cfg.L1Bytes, cfg.L1Ways, cfg.LLCBytes, cfg.LLCWays, mem.DefaultBase, regionBytes)
				for _, a := range addr[:1024] { // warm the set's hot blocks
					h.Load(0, a)
				}
				m.start()
				for _, a := range addr {
					if !store {
						h.Load(0, a)
					} else if h.Store(0, a).Level == cache.LevelMemory {
						h.FillFromMemory(0, a, nil)
						h.CompleteStore(0, a)
					}
				}
				m.stop()
				return nil
			})
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// microWPQ: write-pending-queue admissions 10 ns apart over a 4096-block
// footprint, so some coalesce.
func microWPQ(rng *rand.Rand) (microResult, error) {
	const ops = 100_000
	addr := blocks(rng, ops, 4096*mem.BlockSize)
	return micro("pmc.wpq_accept_ns", ops, func(m *meter) error {
		q := pmc.NewWPQ(pmc.NewController(pmc.DefaultConfig()), 64, mem.DefaultBase, regionBytes)
		now := sim.Time(0)
		m.start()
		for _, a := range addr {
			now += sim.NS(10)
			q.Accept(now, a)
		}
		m.stop()
		return nil
	})
}

// microPBuf: a kernel thread appending to a persist buffer one store
// per cycle, stalling when it is full, as the buffered designs do.
func microPBuf(rng *rand.Rand) (microResult, error) {
	const ops = 50_000
	addr := blocks(rng, ops, 4096*mem.BlockSize)
	cfg := machine.DefaultConfig(machine.HOPS, 1)
	data := make([]byte, 8)
	return micro("pmc.pbuf_append_ns", ops, func(m *meter) error {
		k := sim.NewKernel()
		q := pmc.NewWPQ(pmc.NewController(cfg.PMC), cfg.WPQEntries, mem.DefaultBase, regionBytes)
		pb := pmc.NewPersistBuffer(k, q, 0, cfg.PersistBufEntries, cfg.WritebackLatency+cfg.PBufDrainLag, nil,
			func(mem.Addr, []byte, sim.Time) {})
		k.Spawn("w", 0, func(t *sim.Thread) {
			m.start()
			for _, a := range addr {
				for pb.Full() && pb.NextFree() > t.Clock() {
					t.AdvanceTo(pb.NextFree())
				}
				pb.Append(t.Clock(), a, data)
				t.Advance(1)
			}
			m.stop()
		})
		return k.Run()
	})
}

// microBloom: HOPS's pending-persist filter, checked for blocks half of
// which hold a pending persist.
func microBloom(rng *rand.Rand) (microResult, error) {
	const ops = 100_000
	addr := blocks(rng, ops, regionBytes)
	cfg := machine.DefaultConfig(machine.HOPS, 1)
	return micro("pmc.bloom_check_ns", ops, func(m *meter) error {
		b := pmc.NewBloom(cfg.BloomBuckets, cfg.BloomLookupCost)
		for i := 0; i < ops; i += 2 {
			b.Insert(addr[i], sim.Time(ops))
		}
		m.start()
		for i, a := range addr {
			b.Check(a, sim.Time(i))
		}
		m.stop()
		return nil
	})
}

// microPPath: a kernel thread sending one store per cycle down its
// persist-path.
func microPPath(rng *rand.Rand) (microResult, error) {
	const ops = 50_000
	addr := blocks(rng, ops, regionBytes)
	data := make([]byte, 8)
	return micro("ppath.send_ns", ops, func(m *meter) error {
		k := sim.NewKernel()
		ps := ppath.New(k, 1, ppath.DefaultConfig(), func(ppath.Message) {})
		k.Spawn("w", 0, func(t *sim.Thread) {
			m.start()
			for _, a := range addr {
				ps.Send(0, a, data, 1, t.Clock())
				t.Advance(1)
			}
			m.stop()
		})
		return k.Run()
	})
}

// microCore times the speculation buffer's three controller events on
// seeded blocks, 20 ns apart, with the paper's 4 entries and 160 ns
// window.
func microCore(rng *rand.Rand) ([]microResult, error) {
	const ops = 100_000
	addr := blocks(rng, ops, 1024*mem.BlockSize)
	cfg := machine.DefaultConfig(machine.PMEMSpec, 8)
	var out []microResult
	for _, op := range []string{"on_read", "on_persist", "on_writeback"} {
		r, err := micro("core."+op+"_ns", ops, func(m *meter) error {
			b := core.NewBuffer(core.Config{Entries: cfg.SpecBufEntries, Window: cfg.Window()})
			now := sim.Time(0)
			m.start()
			for i, a := range addr {
				now += sim.NS(20)
				switch op {
				case "on_read":
					b.OnRead(now, a)
				case "on_persist":
					b.OnPersist(now, a, uint64(i), now+sim.NS(100))
				default:
					b.OnWriteBack(now, a)
				}
			}
			m.stop()
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// microMachineOps times machine loads, stores, cache-line write-backs
// and each design's durability fence from a thread body on a one-core
// machine, over seeded addresses in a region larger than the L1.
func microMachineOps(rng *rand.Rand) ([]microResult, error) {
	const ops = 5_000
	addr := blocks(rng, ops, 4<<20)
	var out []microResult
	for _, d := range machine.AllDesigns {
		model := persist.ForDesign(d)
		var names []string
		for _, op := range []string{"load", "store", "clwb", "fence"} {
			names = append(names, "machine."+op+"_ns."+designSlug(d))
		}
		rs, err := microSet(names, ops, func(ms []meter) error {
			m, err := machine.New(machine.DefaultConfig(d, 1))
			if err != nil {
				return err
			}
			defer m.Release()
			buf := make([]byte, 8)
			m.Spawn("bench", func(t *machine.Thread) {
				ms[0].start()
				for _, a := range addr {
					t.Load(a, buf)
				}
				ms[0].stop()
				ms[1].start()
				for _, a := range addr {
					t.Store(a, buf)
				}
				ms[1].stop()
				ms[2].start()
				for _, a := range addr {
					t.CLWB(a)
				}
				ms[2].stop()
				// One fence per flushed store, timed alone.
				for _, a := range addr {
					t.Store(a, buf)
					model.Flush(t, a, len(buf))
					ms[3].lap(func() { model.DurableBarrier(t) })
				}
			})
			return m.Run()
		})
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}

// microConstruct times building and releasing a machine for every
// design at the core counts the workloads use, and creating a fresh and
// a cloned 64 MB memory image. Released images are recycled, so each
// construction first empties the recycling pool (two GC cycles): the
// figures are those of a construction that finds nothing to reuse.
func microConstruct(rng *rand.Rand) ([]microResult, error) {
	var cfgs []machine.Config
	for _, cores := range []int{crashThreads, gridCores} {
		cfgs = append(cfgs, configs(machine.AllDesigns, cores)...)
	}
	// Each repetition builds its share of the configurations.
	per := len(cfgs) / microReps
	rep := 0
	r, err := micro("machine.new", per, func(mt *meter) error {
		defer func() { rep++ }()
		for _, cfg := range cfgs[rep*per : (rep+1)*per] {
			drainPools()
			mt.start()
			m, err := machine.New(cfg)
			if err != nil {
				return err
			}
			m.Release()
			mt.stop()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	img, err := micro("mem.new_image", 1, func(mt *meter) error {
		drainPools()
		mt.start()
		im := mem.NewImage(mem.DefaultBase, regionBytes)
		im.Release()
		mt.stop()
		return nil
	})
	if err != nil {
		return nil, err
	}
	src := mem.NewImage(mem.DefaultBase, regionBytes)
	defer src.Release()
	for _, a := range blocks(rng, 4096, regionBytes) {
		src.WriteU64(a, uint64(a))
	}
	clone, err := micro("mem.clone", 1, func(mt *meter) error {
		drainPools()
		mt.start()
		c := src.Clone()
		c.Release()
		mt.stop()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []microResult{r, img, clone}, nil
}

// drainPools empties sync.Pool caches: a pool drops its contents over
// two garbage collections.
func drainPools() {
	runtime.GC()
	runtime.GC()
}

// microRecover times the recovery protocol and the workload's
// structural check on crash images of every Table-4 workload. Each image
// is the persisted state just before one of the run's last WPQ
// admissions, taken from an otherwise uninterrupted crash-campaign-sized
// run; every repetition recovers a fresh copy of it.
func microRecover(seed int64) ([]microResult, error) {
	type crashed struct {
		w   workload.Workload
		img *mem.Image
	}
	var imgs []crashed
	defer func() {
		for _, c := range imgs {
			c.img.Release()
		}
	}()
	rng := newRand(deriveSeed(seed, "recover", 0))
	for i, name := range workload.Names() {
		d := machine.AllDesigns[i%len(machine.AllDesigns)]
		p := gridParams(name, crashThreads, crashOps, deriveSeed(seed, "recover/"+name, 0))
		p.Scale = crashScale
		spec := harness.TrialSpec{Design: d, Workload: name, Params: p, Mode: fatomic.Lazy}
		b, err := harness.DiscoverBoundaries(spec)
		if err != nil {
			return nil, fmt.Errorf("recover: %s/%s: %w", name, d, err)
		}
		admits := append([]int64(nil), b.AdmitNS...)
		sort.Slice(admits, func(i, j int) bool { return admits[i] < admits[j] })
		if len(admits) < 4 {
			return nil, fmt.Errorf("recover: %s/%s: %d WPQ admissions", name, d, len(admits))
		}
		at := admits[len(admits)-1-rng.Intn(4)] - 1
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		var img *mem.Image
		spec.Instrument = func(m *machine.Machine) {
			m.Kernel().Schedule(sim.NS(at), func() { img = m.Space().PM.Clone() })
		}
		if _, err := harness.RunTrialWith(spec, w); err != nil {
			return nil, fmt.Errorf("recover: %s/%s: %w", name, d, err)
		}
		if img == nil {
			return nil, fmt.Errorf("recover: %s/%s: no image at %dns", name, d, at)
		}
		imgs = append(imgs, crashed{w, img})
	}
	rs, err := microSet([]string{"fatomic.recover", "workload.verify"}, len(imgs), func(ms []meter) error {
		for _, c := range imgs {
			im := c.img.Clone()
			ms[0].start()
			_, err := fatomic.Recover(im, crashThreads)
			ms[0].stop()
			if err == nil {
				ms[1].start()
				err = c.w.Verify(im, 0)
				ms[1].stop()
			}
			im.Release()
			if err != nil {
				return fmt.Errorf("%s: %w", c.w.Name(), err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rs, nil
}
