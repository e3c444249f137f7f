package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"wcdsnet"
	"wcdsnet/internal/udg"
)

// selfCase is one correctness check fed one input: a clean input must
// pass, a corrupted one must make the check fire.
type selfCase struct {
	name    string
	corrupt bool
	err     error
}

func (c selfCase) ok() bool { return (c.err != nil) == c.corrupt }

// selfTest runs every workload's correctness check on small real outputs,
// clean and deliberately corrupted.
func selfTest() ([]selfCase, error) {
	var cases []selfCase
	add := func(name string, corrupt bool, err error) {
		cases = append(cases, selfCase{name, corrupt, err})
	}

	spec := &wcdsnet.BatchSpec{Sizes: []int{40}, Degrees: []float64{6}, Seeds: []int64{1}, Workloads: paperWorkloads()}
	digests, err := serialDigests([]*wcdsnet.BatchSpec{spec}, nil)
	if err != nil {
		return nil, err
	}
	digest := digests[0]
	rep, err := wcdsnet.RunBatch(context.Background(), spec, wcdsnet.BatchOptions{})
	if err != nil {
		return nil, err
	}
	add("sweep: clean report", false, checkSweep(spec, rep, nil, digest))
	add("sweep: corrupted digest", true, checkSweep(spec, rep, nil, "0"+digest[1:]))
	bad := *rep
	bad.Results = append([]wcdsnet.BatchResult(nil), rep.Results...)
	bad.Results[2].Backbone++
	add("sweep: corrupted row", true, checkSweep(spec, &bad, nil, digest))
	bad.Results[2].Backbone--
	bad.Failed = 1
	add("sweep: failed scenario", true, checkSweep(spec, &bad, nil, digest))

	// Rows whose own verdict is bad, with the digest taken from the same
	// bad rows: a change that broke the serial reference the same way.
	// Rows follow paperWorkloads: 0 centralized II, 4 reliable under
	// loss, 5 dilation, 6 the first broadcast.
	verdicts := []struct {
		name  string
		row   int
		spoil func(r *wcdsnet.BatchResult)
	}{
		{"invalid backbone", 0, func(r *wcdsnet.BatchResult) { r.Valid = false }},
		{"reliable run gave up under loss", 4, func(r *wcdsnet.BatchResult) { r.Failure = "no progress" }},
		{"unconverged backbone", 4, func(r *wcdsnet.BatchResult) { r.Converged = false }},
		{"dilation bounds broken", 5, func(r *wcdsnet.BatchResult) { r.BoundsOK = false }},
		{"uncovered broadcast", 6, func(r *wcdsnet.BatchResult) { r.Covered = false }},
	}
	for _, v := range verdicts {
		bad := *rep
		bad.Results = append([]wcdsnet.BatchResult(nil), rep.Results...)
		v.spoil(&bad.Results[v.row])
		add("sweep: "+v.name, true, checkSweep(spec, &bad, nil, bad.Digest()))
	}

	workers, err := wcdsnet.SpawnFleetWorkers(fleetWorkers, wcdsnet.ServiceOptions{Workers: 1, CacheSize: -1})
	if err != nil {
		return nil, err
	}
	frep, err := wcdsnet.RunBatchFleet(context.Background(), spec, wcdsnet.FleetOptions{Workers: wcdsnet.FleetWorkerAddrs(workers)})
	for _, w := range workers {
		w.Close()
	}
	if err != nil {
		return nil, err
	}
	add("fleet: clean report", false, checkFleet(spec, frep, nil, digest))
	fbad := *frep
	fbad.Digest = "0" + frep.Digest[1:]
	add("fleet: corrupted digest", true, checkFleet(spec, &fbad, nil, digest))
	fbad = *frep
	fbad.Duplicates = 1
	add("fleet: duplicate rows", true, checkFleet(spec, &fbad, nil, digest))
	for _, v := range verdicts {
		fbad = *frep
		fbad.Results = append([]wcdsnet.BatchResult(nil), frep.Results...)
		v.spoil(&fbad.Results[v.row])
		fbad.Digest = fbad.Report.Digest()
		add("fleet: "+v.name, true, checkFleet(spec, &fbad, nil, fbad.Digest))
	}

	nw := udg.GenUniform(rand.New(rand.NewSource(7)), 2000, udg.SideForAvgDegree(2000, scaleDegree))
	res, _, err := runScale(nw)
	add("scale: clean backbone", false, checkScale(nw, res, err))
	res.Dominators = res.Dominators[:len(res.Dominators)/2]
	add("scale: backbone missing half its dominators", true, checkScale(nw, res, nil))
	add("scale: run error", true, checkScale(nw, res, fmt.Errorf("budget exceeded")))

	h, svc := wcdsnet.ServeHandler(wcdsnet.ServiceOptions{})
	defer svc.Close()
	gen := newReqGen(1)
	for _, ep := range endpoints {
		var req request
		for req = gen.next(); req.endpoint != ep || req.repeatOf >= 0; req = gen.next() {
		}
		first, again := serveOnce(h, req), serveOnce(h, req)
		add("serve: clean "+ep, false, checkReply(req, first, nil))
		add("serve: clean repeat of "+ep, false, checkReply(req, again, first))
		changed := *again
		changed.body = bytes.Replace(again.body, []byte(`"n":300`), []byte(`"n":301`), 1)
		add("serve: repeat of "+ep+" with a different body", true, checkReply(req, &changed, first))
		failed := *first
		failed.status = http.StatusInternalServerError
		add("serve: "+ep+" status 500", true, checkReply(req, &failed, nil))
	}
	for _, c := range []struct{ ep, from, to string }{
		{"backbone", `"isWCDS":true`, `"isWCDS":false`},
		{"dilation", `"topoBoundHolds":true`, `"topoBoundHolds":false`},
		{"broadcast", `"backboneCovered":true`, `"backboneCovered":false`},
	} {
		var req request
		for req = gen.next(); req.endpoint != c.ep || req.repeatOf >= 0; req = gen.next() {
		}
		rep := serveOnce(h, req)
		rep.body = bytes.Replace(rep.body, []byte(c.from), []byte(c.to), 1)
		add("serve: "+c.ep+" reply with "+c.to, true, checkReply(req, rep, nil))
	}
	return cases, nil
}

// serveOnce answers one request in process.
func serveOnce(h http.Handler, req request) *reply {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+req.endpoint, bytes.NewReader(req.body)))
	return &reply{status: rec.Code, body: rec.Body.Bytes()}
}
