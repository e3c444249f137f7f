package main

import (
	"context"
	"fmt"
	"time"

	"wcdsnet"
	"wcdsnet/internal/batch"
)

// The fleet layers, measured in the sweep workload's traced pass: each
// traced sweep is also run through the cluster-mode coordinator to
// fleetWorkers loopback workers at the default shard width. Worker result
// caches are off, so every fleet sweep computes instead of replaying
// shards.

const fleetWorkers = 2

// checkFleet is the fleet's correctness check: no row arrived twice, every
// merged row passes checkRows, and the merged digest equals the serial
// reference.
func checkFleet(spec *wcdsnet.BatchSpec, rep *wcdsnet.FleetReport, err error, digest string) error {
	if err != nil {
		return err
	}
	if rep.Duplicates > 0 {
		return fmt.Errorf("%d duplicate rows merged", rep.Duplicates)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d scenarios failed", rep.Failed)
	}
	if err := checkRows(spec, rep.Results); err != nil {
		return err
	}
	if rep.Digest != digest {
		return fmt.Errorf("merged digest %.12s != serial %.12s", rep.Digest, digest)
	}
	if d := rep.Report.Digest(); d != digest {
		return fmt.Errorf("merged rows digest %.12s != serial %.12s", d, digest)
	}
	return nil
}

// cellRegenRatio is the number of (shard, network cell) pairs over the
// number of distinct cells: how many times the fleet generates each cell
// when shards of width scenarios split cells (1.0 when shards align).
func cellRegenRatio(spec *wcdsnet.BatchSpec, width int) (float64, error) {
	scens, err := spec.Expand()
	if err != nil {
		return 0, err
	}
	pairs := map[[2]int]bool{}
	cells := map[int]bool{}
	for _, sc := range scens {
		pairs[[2]int{sc.Index / width, sc.Net}] = true
		cells[sc.Net] = true
	}
	return float64(len(pairs)) / float64(len(cells)), nil
}

// fleetSweep spawns a fresh fleet, runs one sweep through it and tears it
// down, returning when the sweep started and ended. Shards are placed by
// hashing their keys onto a ring of the workers' addresses, and those are
// fresh ephemeral ports each time, so every sweep draws a new placement.
func fleetSweep(spec *wcdsnet.BatchSpec) (rep *wcdsnet.FleetReport, start, end time.Time, err error) {
	workers, err := wcdsnet.SpawnFleetWorkers(fleetWorkers, wcdsnet.ServiceOptions{Workers: 1, CacheSize: -1})
	if err != nil {
		return nil, start, end, err
	}
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	start = time.Now()
	rep, err = wcdsnet.RunBatchFleet(context.Background(), spec,
		wcdsnet.FleetOptions{Workers: wcdsnet.FleetWorkerAddrs(workers)})
	return rep, start, time.Now(), err
}

// fleetWall is the layer key holding a fleet sweep's wall time; it is not
// printed itself, only used for fleet.overhead_ms.
const fleetWall = "_fleet_ms"

// probeFleet runs one of the sweep's specs through the cluster-mode
// coordinator, checks the merged report against the serial digest, and
// derives the fleet's layer figures: shard accounting from the report, and
// the shards' compute time from running each shard range in process,
// serially, with one engine worker.
func probeFleet(tr *tracer, parent int, spec *wcdsnet.BatchSpec, digest string) (map[string]float64, error) {
	rep, start, end, err := fleetSweep(spec)
	op := map[string]float64{fleetWall: tr.record("wcdsnet.RunBatchFleet", parent, start, end)}
	if err := checkFleet(spec, rep, err, digest); err != nil {
		return op, fmt.Errorf("fleet: %w", err)
	}
	op["fleet.shards"] = float64(rep.Shards)
	op["fleet.redispatched"] = float64(rep.Redispatched)
	util := 1.0
	for _, w := range rep.Fleet {
		util = min(util, w.Utilization)
	}
	op["fleet.worker_util_min"] = util
	ratio, err := cellRegenRatio(spec, rep.ShardWidth)
	if err != nil {
		return op, err
	}
	op["fleet.cell_regen_ratio"] = ratio

	root := tr.start("fleet.compute", parent)
	defer root.end()
	n := spec.NumScenarios()
	for lo := 0; lo < n; lo += rep.ShardWidth {
		hi := min(lo+rep.ShardWidth, n)
		s := tr.start("batch.RunRange", root.id)
		shard, err := batch.RunRange(context.Background(), spec, lo, hi, batch.Options{Workers: 1})
		op["fleet.compute_ms"] += s.end()
		if err != nil {
			return op, err
		}
		for i := range shard.Results {
			got := &shard.Results[i]
			if want := &rep.Results[got.Index]; got.Canonical() != want.Canonical() {
				return op, fmt.Errorf("fleet: shard [%d,%d) row %d differs from the fleet's", lo, hi, got.Index)
			}
		}
	}
	return op, nil
}
