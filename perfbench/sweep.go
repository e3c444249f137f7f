package main

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wcdsnet"
	"wcdsnet/internal/batch"
	"wcdsnet/internal/route"
	"wcdsnet/internal/spanner"
	"wcdsnet/internal/udg"
)

// The sweep workload: the pinned paper sweep (2 sizes × 2 degrees × 3
// seeds × 11 workloads = 132 scenarios over 12 network cells) through the
// in-process sharded engine at default options. One op is one whole sweep;
// every sweep's digest must equal the serial reference run's. A traced op
// is followed by a layer-by-layer replay of the sweep and by the same
// sweep through a fleet (fleet.go).

const (
	// sweepsPerRun is how many sweeps a run rotates through, op by op,
	// each with its own three cell seeds drawn from the workload seed. One
	// sweep's cost depends on its cells: over seeds 1-10 its serial
	// reference took 0.34-0.65 s on a 2-core VM. The median over a
	// rotation of twelve sweeps (144 cells) varies less from seed to seed
	// than one sweep's time, or four sweeps'.
	sweepsPerRun = 12
	// sweepWarmups is how many sweeps each set-up runs before timing.
	sweepWarmups = 2
	// The lossy workload of the sweep, as cmd/bench pins it.
	lossySeed      = 11
	lossyDrop      = 0.15
	lossyMaxRounds = 4000
	// The dilation workload's sample.
	dilationPairs      = 40
	dilationSampleSeed = 7
	// Broadcast sources 0..broadcastSources-1.
	broadcastSources = 5
)

// sweepSpecs are a run's sweeps: the paper sweep sweepsPerRun times, with
// distinct cell seeds drawn from the workload seed.
func sweepSpecs(seed int64) []*wcdsnet.BatchSpec {
	seeds := cellSeeds(seed, 3*sweepsPerRun)
	specs := make([]*wcdsnet.BatchSpec, sweepsPerRun)
	for i := range specs {
		specs[i] = &wcdsnet.BatchSpec{
			Sizes:     []int{100, 200},
			Degrees:   []float64{6, 10},
			Seeds:     seeds[3*i : 3*i+3],
			Workloads: paperWorkloads(),
		}
	}
	return specs
}

// cellSeeds draws n distinct positive network seeds from seed.
func cellSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seen := map[int64]bool{}
	var out []int64
	for len(out) < n {
		if s := rng.Int63n(1<<31) + 1; !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// paperWorkloads are cmd/bench's 11 workloads per network cell: one
// backbone per algorithm, Algorithm II on both deterministic engines and
// reliably under loss, sampled dilation and five broadcast sources.
func paperWorkloads() []wcdsnet.BatchWorkload {
	ws := []wcdsnet.BatchWorkload{
		{Kind: "backbone", Algorithm: "II"},
		{Kind: "backbone", Algorithm: "I"},
		{Kind: "backbone", Algorithm: "II", Mode: "sync"},
		{Kind: "backbone", Algorithm: "II", Engine: "event"},
		{Kind: "backbone", Algorithm: "II", Engine: "event",
			Faults: lossyPlan(), Reliable: true, MaxRounds: lossyMaxRounds},
		{Kind: "dilation", Algorithm: "II", Pairs: dilationPairs, SampleSeed: dilationSampleSeed},
	}
	for src := 0; src < broadcastSources; src++ {
		ws = append(ws, wcdsnet.BatchWorkload{Kind: "broadcast", Source: src})
	}
	return ws
}

func lossyPlan() *wcdsnet.FaultPlan {
	return &wcdsnet.FaultPlan{Seed: lossySeed, DropRate: lossyDrop}
}

// checkSweep is the sweep's correctness check: the run succeeded, every
// row passes checkRows, and the digest equals the serial reference.
func checkSweep(spec *wcdsnet.BatchSpec, rep *wcdsnet.BatchReport, err error, digest string) error {
	if err != nil {
		return err
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d scenarios failed", rep.Failed)
	}
	if err := checkRows(spec, rep.Results); err != nil {
		return err
	}
	if d := rep.Digest(); d != digest {
		return fmt.Errorf("digest %.12s != serial %.12s", d, digest)
	}
	return nil
}

// checkRows checks each row's own verdict, which the digest alone cannot:
// the serial reference is computed by the same code, so a change that
// breaks a result breaks it in both. A row fails on a hard error, a
// backbone that is not valid for its construction or did not converge (a
// reliable run that gives up under loss records Failure), a dilation
// sample outside Theorem 11's bounds, or a broadcast that missed a node.
func checkRows(spec *wcdsnet.BatchSpec, rows []wcdsnet.BatchResult) error {
	scens, err := spec.Expand()
	if err != nil {
		return err
	}
	if len(rows) != len(scens) {
		return fmt.Errorf("%d rows for %d scenarios", len(rows), len(scens))
	}
	for i := range rows {
		r := &rows[i]
		if r.Index < 0 || r.Index >= len(scens) {
			return fmt.Errorf("row %d: index %d out of range", i, r.Index)
		}
		var bad string
		switch w := spec.Workloads[scens[r.Index].Workload]; {
		case r.Err != "":
			bad = r.Err
		case w.Kind == batch.Dilation:
			if !r.BoundsOK {
				bad = "dilation outside Theorem 11's bounds"
			}
		case w.Kind == batch.Broadcast:
			if !r.Covered {
				bad = "broadcast did not cover the network"
			}
		case r.Failure != "":
			bad = "did not converge: " + r.Failure
		case !r.Converged:
			bad = "did not converge"
		case !r.Valid:
			bad = "invalid backbone"
		}
		if bad != "" {
			return fmt.Errorf("scenario %d (%s): %s", r.Index, r.Workload, bad)
		}
	}
	return nil
}

// serialDigests runs the serial reference of each spec and returns their
// digests, each of which must equal prev's, the previous set-up's, when
// there was one. Rows are not checked here: a bad row fails every op's
// checks instead, so a broken program shows as failed ops and not as a
// set-up that stops the run.
//
// The references are independent, so they run on GOMAXPROCS goroutines,
// each taking the next spec in turn.
func serialDigests(specs []*wcdsnet.BatchSpec, prev []string) ([]string, error) {
	out := make([]string, len(specs))
	errs := make([]error, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(specs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(specs); i = int(next.Add(1)) - 1 {
				rep, err := wcdsnet.RunBatchSerial(context.Background(), specs[i])
				if err != nil {
					errs[i] = fmt.Errorf("serial reference: %w", err)
					continue
				}
				out[i] = rep.Digest()
			}
		}()
	}
	wg.Wait()
	for i := range specs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if prev != nil && out[i] != prev[i] {
			return nil, fmt.Errorf("serial digest changed between set-ups: %.12s != %.12s", out[i], prev[i])
		}
	}
	return out, nil
}

type sweepBench struct {
	specs   []*wcdsnet.BatchSpec
	digests []string
}

func newSweep(seed int64) bench { return &sweepBench{specs: sweepSpecs(seed)} }

func (b *sweepBench) setup() error {
	d, err := serialDigests(b.specs, b.digests)
	if err != nil {
		return err
	}
	b.digests = d
	for _, spec := range b.specs[:sweepWarmups] {
		// Warm-up output is left unchecked; the timed ops check theirs.
		if _, err := b.once(spec); err != nil {
			return fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	return nil
}

func (b *sweepBench) once(spec *wcdsnet.BatchSpec) (*wcdsnet.BatchReport, error) {
	return wcdsnet.RunBatch(context.Background(), spec, wcdsnet.BatchOptions{})
}

func (b *sweepBench) run(budget time.Duration, traced bool, o *outcome) {
	o.workPerOp = float64(b.specs[0].NumScenarios())
	serialLoop(budget, traced, len(b.specs), o, func(i int, traced bool) (float64, error) {
		spec, digest := b.specs[i%len(b.specs)], b.digests[i%len(b.specs)]
		if !traced {
			start := time.Now()
			rep, err := b.once(spec)
			lat := ms(time.Since(start))
			return lat, checkSweep(spec, rep, err, digest)
		}
		root := o.tr.start("sweep.op", 0)
		s := o.tr.start("batch.RunBatch", root.id)
		rep, err := b.once(spec)
		lat := s.end()
		if err := checkSweep(spec, rep, err, digest); err != nil {
			root.end()
			return lat, err
		}
		op, err := replaySweep(o.tr, root.id, spec, rep)
		if err == nil {
			var fop map[string]float64
			fop, err = probeFleet(o.tr, root.id, spec, digest)
			maps.Copy(op, fop)
		}
		root.end()
		o.layers.addOp(op)
		return lat, err
	})
}

func (b *sweepBench) finish(o *outcome) {
	// Serial layer time of one sweep over what the engine's workers had:
	// 1.0 means the engine kept every worker busy with layer work.
	workers := float64(runtime.GOMAXPROCS(0))
	o.fixed["batch.parallel_eff"] = ratio(median(o.layers[replayTotal]), workers*median(o.lat))
	// What the fleet spends beyond its shards' compute spread perfectly
	// over its workers: dispatch, the wire, NDJSON and merge, plus the
	// imbalance of the last shards.
	o.fixed["fleet.overhead_ms"] = median(o.layers[fleetWall]) - median(o.layers["fleet.compute_ms"])/fleetWorkers
}

func (b *sweepBench) close() {}

// replayTotal is the layer key holding a replay's summed layer time; it is
// not printed itself.
const replayTotal = "_replay_ms"

// replaySweep recomputes one sweep layer by layer, serially, through each
// layer's exported functions, so every layer gets its own span. It checks
// every recomputed figure against the engine's row for the same scenario
// and returns the per-layer sums over the sweep's cells.
func replaySweep(tr *tracer, parent int, spec *wcdsnet.BatchSpec, rep *wcdsnet.BatchReport) (map[string]float64, error) {
	op := map[string]float64{}
	per := len(spec.Workloads)
	cell := 0
	for _, size := range spec.Sizes {
		for _, deg := range spec.Degrees {
			for _, seed := range spec.Seeds {
				rows := rep.Results[cell*per : (cell+1)*per]
				c := tr.start("cell", parent)
				err := replayCell(tr, c.id, op, size, deg, seed, rows)
				c.end()
				if err != nil {
					return op, fmt.Errorf("replay of cell %d: %w", cell, err)
				}
				cell++
			}
		}
	}
	// One dilation report per cell.
	op["spanner.mallocs_per_report"] /= float64(cell)
	for _, k := range []string{"udg.gen_ms", "algo.centralized_ms", "wcds.sync_ms", "wcds.event_ms",
		"reliable.event_lossy_ms", "spanner.dilation_ms", "wcds.detailed_ms", "route.broadcast_ms"} {
		op[replayTotal] += op[k]
	}
	return op, nil
}

// replayCell recomputes one network cell's 11 scenarios and compares them
// with the engine's rows (in paperWorkloads order).
func replayCell(tr *tracer, parent int, op map[string]float64, size int, deg float64, seed int64, rows []wcdsnet.BatchResult) error {
	s := tr.start("wcdsnet.GenerateNetwork", parent)
	a0 := readAllocs()
	nw, err := wcdsnet.GenerateNetwork(seed, size, deg)
	a1 := readAllocs()
	op["udg.gen_ms"] += s.end()
	if err != nil {
		return err
	}
	op["udg.mallocs"] += float64(a1.since(a0).mallocs)

	s = tr.start("udg.BuildGraph", parent)
	udg.BuildGraph(nw.Pos, nw.Radius)
	op["udg.build_ms"] += s.end()

	s = tr.start("wcdsnet.Run.centralized", parent)
	resII, _, err := wcdsnet.Run(nw, wcdsnet.AlgoII)
	if err != nil {
		return err
	}
	resI, _, err := wcdsnet.Run(nw, wcdsnet.AlgoI)
	op["algo.centralized_ms"] += s.end()
	if err != nil {
		return err
	}
	if err := same("centralized II backbone", rows[0].Backbone, len(resII.Dominators)); err != nil {
		return err
	}
	if err := same("centralized I backbone", rows[1].Backbone, len(resI.Dominators)); err != nil {
		return err
	}

	protocols := []struct {
		layer, span string
		row         int
		opts        []wcdsnet.Option
	}{
		{"wcds.sync_ms", "wcdsnet.Run.sync", 2, []wcdsnet.Option{wcdsnet.WithEngine(wcdsnet.EngineSync)}},
		{"wcds.event_ms", "wcdsnet.Run.event", 3, []wcdsnet.Option{wcdsnet.WithEngine(wcdsnet.EngineEvent)}},
		{"reliable.event_lossy_ms", "wcdsnet.Run.event_lossy", 4, []wcdsnet.Option{
			wcdsnet.WithEngine(wcdsnet.EngineEvent), wcdsnet.WithFaults(*lossyPlan()),
			wcdsnet.WithReliable(wcdsnet.ReliableOptions{}), wcdsnet.WithMaxRounds(lossyMaxRounds)}},
	}
	for _, p := range protocols {
		// The engine records phases on every distributed run; so does the
		// replay, so both pay the same observation cost.
		s = tr.start(p.span, parent)
		res, st, err := wcdsnet.Run(nw, wcdsnet.AlgoII, append(p.opts, wcdsnet.WithPhases())...)
		op[p.layer] += s.end()
		if err != nil {
			return fmt.Errorf("%s: %w", p.span, err)
		}
		row := rows[p.row]
		if err := same(p.span+" messages", row.Messages, st.Messages); err != nil {
			return err
		}
		if err := same(p.span+" backbone", row.Backbone, len(res.Dominators)); err != nil {
			return err
		}
		op["wcds.messages"] += float64(st.Messages)
		op["wcds.deliveries"] += float64(st.Deliveries)
		op["reliable.retransmits"] += float64(st.Retransmits)
		op["simnet.dropped"] += float64(st.Dropped)
		for _, ph := range st.Phases {
			op["wcds.phase."+ph.Name+".messages"] += float64(ph.Messages)
		}
	}

	s = tr.start("spanner.DilationN", parent)
	a0 = readAllocs()
	pairs := spanner.SamplePairs(rand.New(rand.NewSource(dilationSampleSeed)), nw.N(), dilationPairs)
	report, err := spanner.DilationN(nw.G, resII.Spanner, nw.Weight(), pairs, 1)
	a1 = readAllocs()
	op["spanner.dilation_ms"] += s.end()
	if err != nil {
		return err
	}
	op["spanner.mallocs_per_report"] += float64(a1.since(a0).mallocs)
	if err := same("dilation pairs", rows[5].Pairs, report.Pairs); err != nil {
		return err
	}

	s = tr.start("wcdsnet.AlgorithmIIWithTables", parent)
	res, tables, _, err := wcdsnet.AlgorithmIIWithTables(nw)
	if err != nil {
		return err
	}
	relay := route.RelaySet(nw.G, nw.ID, res, tables)
	op["wcds.detailed_ms"] += s.end()

	s = tr.start("route.Broadcast", parent)
	for src := 0; src < broadcastSources; src++ {
		bc := route.Broadcast(nw.G, relay, src)
		flood := route.BlindFlood(nw.G, src)
		if err := same(fmt.Sprintf("broadcast %d transmissions", src), rows[6+src].BackboneTx, bc.Transmissions); err != nil {
			return err
		}
		if err := same(fmt.Sprintf("flood %d transmissions", src), rows[6+src].FloodTx, flood.Transmissions); err != nil {
			return err
		}
	}
	op["route.broadcast_ms"] += s.end()
	return nil
}

// same reports a replayed figure that differs from the engine's.
func same(what string, engine, replay int) error {
	if engine != replay {
		return fmt.Errorf("%s: engine %d, replay %d", what, engine, replay)
	}
	return nil
}
