package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"wcdsnet"
	"wcdsnet/internal/mis"
	"wcdsnet/internal/udg"
)

// The scale workload: Algorithm II on the event engine over fresh uniform
// scenes of scaleNodes nodes. One op is one scene, from generation to a
// verified backbone. There is no reliable layer, dilation or HTTP.

const (
	scaleNodes  = 250_000
	scaleDegree = 10
)

// sceneSeed derives op i's scene seed from the workload seed; set-up
// warm-ups use negative i, so they never repeat a timed scene.
func sceneSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func scaleScene(seed int64, i int) *udg.Network {
	rng := rand.New(rand.NewSource(sceneSeed(seed, i)))
	return udg.GenUniform(rng, scaleNodes, udg.SideForAvgDegree(scaleNodes, scaleDegree))
}

func runScale(nw *udg.Network, opts ...wcdsnet.Option) (wcdsnet.Result, wcdsnet.RunStats, error) {
	return wcdsnet.Run(nw, wcdsnet.AlgoII, append([]wcdsnet.Option{wcdsnet.WithEngine(wcdsnet.EngineEvent)}, opts...)...)
}

// checkScale is the scale correctness check: the run succeeded and its
// backbone dominates the scene.
func checkScale(nw *udg.Network, res wcdsnet.Result, err error) error {
	if err != nil {
		return err
	}
	if !mis.IsDominating(nw.G, res.Dominators) {
		return fmt.Errorf("backbone of %d nodes does not dominate the %d-node scene", len(res.Dominators), nw.N())
	}
	return nil
}

type scaleBench struct {
	seed    int64
	warmups int
}

func newScale(seed int64) bench { return &scaleBench{seed: seed} }

func (b *scaleBench) setup() error {
	runtime.GC()
	b.warmups++
	// Warm-up output is left unchecked; the timed ops check theirs.
	runScale(scaleScene(b.seed, -b.warmups))
	return nil
}

func (b *scaleBench) run(budget time.Duration, traced bool, o *outcome) {
	o.workPerOp = scaleNodes
	serialLoop(budget, traced, 1, o, func(i int, traced bool) (float64, error) {
		// Each scene starts from a collected heap, so one op's garbage is
		// not another op's GC work.
		runtime.GC()
		if !traced {
			start := time.Now()
			nw := scaleScene(b.seed, i)
			res, _, err := runScale(nw)
			err = checkScale(nw, res, err)
			return ms(time.Since(start)), err
		}
		return b.tracedOp(o, i)
	})
}

// tracedOp runs op i with a span per layer, then probes the same scene
// outside the op: the graph build on its positions and a WithPhases run.
func (b *scaleBench) tracedOp(o *outcome, i int) (float64, error) {
	tr := o.tr
	op := map[string]float64{}
	root := tr.start("scale.op", 0)

	s := tr.start("udg.GenUniform", root.id)
	a0 := readAllocs()
	nw := scaleScene(b.seed, i)
	a1 := readAllocs()
	op["udg.gen_ms"] = s.end()
	op["udg.mallocs"] = float64(a1.since(a0).mallocs)

	s = tr.start("wcdsnet.Run", root.id)
	gc0, cpu0 := cpuTimes()
	a0 = readAllocs()
	res, st, err := runScale(nw)
	a1 = readAllocs()
	gc1, cpu1 := cpuTimes()
	op["wcds.protocol_ms"] = s.end()

	s = tr.start("mis.IsDominating", root.id)
	err = checkScale(nw, res, err)
	op["mis.verify_ms"] = s.end()
	lat := root.end()
	if err != nil {
		return lat, err
	}
	alloc := a1.since(a0)
	op["wcds.mallocs_per_msg"] = float64(alloc.mallocs) / float64(st.Messages)
	op["wcds.alloc_bytes_per_msg"] = float64(alloc.bytes) / float64(st.Messages)
	if cpu1 > cpu0 {
		op["runtime.gc_cpu_frac"] = (gc1 - gc0) / (cpu1 - cpu0)
	}
	op["wcds.messages"] = float64(st.Messages)
	op["wcds.deliveries"] = float64(st.Deliveries)

	s = tr.start("udg.BuildGraph", 0)
	udg.BuildGraph(nw.Pos, nw.Radius)
	op["udg.build_ms"] = s.end()

	s = tr.start("wcdsnet.Run.phases", 0)
	phRes, phSt, err := runScale(nw, wcdsnet.WithPhases())
	phMS := s.end()
	if err != nil {
		return lat, fmt.Errorf("phases run: %w", err)
	}
	if phSt.Messages != st.Messages || !slices.Equal(phRes.Dominators, res.Dominators) {
		return lat, fmt.Errorf("phases run diverged: %d msgs, %d dominators; want %d, %d",
			phSt.Messages, len(phRes.Dominators), st.Messages, len(res.Dominators))
	}
	for _, ph := range phSt.Phases {
		op["wcds.phase."+ph.Name+".messages"] += float64(ph.Messages)
	}
	op["obs.phases_overhead"] = phMS / op["wcds.protocol_ms"]
	o.layers.addOp(op)
	return lat, nil
}

func (b *scaleBench) finish(*outcome) {}
func (b *scaleBench) close()          {}
