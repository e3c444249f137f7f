package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"wcdsnet"
	"wcdsnet/internal/route"
	"wcdsnet/internal/service/api"
)

// The serve workload: closed-loop HTTP traffic from serveClients clients
// against the service on loopback, with default pool and cache. Each
// client sends its next request when its previous reply has arrived, like
// the fleet coordinator and the chaos runner do. The mix, drawn from the
// seed: 50% backbone (Algorithm II, sync, fresh network), 20% dilation,
// 10% broadcast, 20% exact repeats of earlier requests, which the result
// cache answers.

const (
	serveClients = 2
	serveNodes   = 300
	serveDegree  = 8
	servePairs   = 100
	// repeatWindow bounds how far back a repeat reaches, well inside the
	// cache's default 1024 entries.
	repeatWindow = 64
	// serveWarmups is the number of requests one set-up sends.
	serveWarmups = 200
	// serveReplays bounds the traced run's in-process recomputations per
	// endpoint.
	serveReplays = 25
	// rateChunk is the number of completions per chunk serve's rate is
	// the median over.
	rateChunk = 100
)

var endpoints = []string{"backbone", "dilation", "broadcast"}

// request is one generated request of the mix.
type request struct {
	endpoint string
	body     []byte
	repeatOf int // index of the request this one repeats, or -1
}

// reqGen produces the deterministic request sequence of a seed; request i
// is the same for every run with that seed, whichever client sends it.
type reqGen struct {
	rng   *rand.Rand
	reqs  []request
	fresh []int // indices of non-repeat requests
}

func newReqGen(seed int64) *reqGen { return &reqGen{rng: rand.New(rand.NewSource(seed))} }

// next appends and returns the next request of the sequence.
func (g *reqGen) next() request {
	i := len(g.reqs)
	r := g.rng.Float64()
	var recent []int
	for k := len(g.fresh) - 1; k >= 0 && g.fresh[k] >= i-repeatWindow; k-- {
		recent = append(recent, g.fresh[k])
	}
	var req request
	switch {
	case r >= 0.8 && len(recent) > 0:
		j := recent[g.rng.Intn(len(recent))]
		req = request{endpoint: g.reqs[j].endpoint, body: g.reqs[j].body, repeatOf: j}
	case r < 0.5 || r >= 0.8:
		req = g.fresh1("backbone", api.BackboneRequest{NetworkSpec: g.network(), Algorithm: "II", Mode: "sync"})
	case r < 0.7:
		req = g.fresh1("dilation", api.DilationRequest{NetworkSpec: g.network(), Algorithm: "II",
			Pairs: servePairs, SampleSeed: g.rng.Int63n(1<<31) + 1})
	default:
		req = g.fresh1("broadcast", api.BroadcastRequest{NetworkSpec: g.network(), Source: g.rng.Intn(serveNodes)})
	}
	if req.repeatOf < 0 {
		g.fresh = append(g.fresh, i)
	}
	g.reqs = append(g.reqs, req)
	return req
}

func (g *reqGen) network() api.NetworkSpec {
	return api.NetworkSpec{Seed: g.rng.Int63n(1<<40) + 1, N: serveNodes, AvgDegree: serveDegree}
}

func (g *reqGen) fresh1(endpoint string, v any) request {
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return request{endpoint: endpoint, body: body, repeatOf: -1}
}

// reply is one request's outcome.
type reply struct {
	done   chan struct{} // closed when the reply is in
	status int
	body   []byte
	err    error
	latMS  float64
	endS   float64 // completion time since the loop started, s
	cached bool
}

// checkReply is serve's correctness check: status 200, a body that passes
// its endpoint's output checks, and, for a repeat, the same body as the
// reply it repeats apart from the cached flag.
func checkReply(req request, rep *reply, orig *reply) error {
	if rep.err != nil {
		return rep.err
	}
	if rep.status != http.StatusOK {
		body := bytes.TrimSpace(rep.body)
		return fmt.Errorf("%s: status %d: %.120s", req.endpoint, rep.status, body)
	}
	if orig != nil {
		if orig.status != http.StatusOK {
			return fmt.Errorf("%s: repeat of a failed request", req.endpoint)
		}
		if !bytes.Equal(uncached(rep.body), uncached(orig.body)) {
			return fmt.Errorf("%s: repeat of request %d returned a different body", req.endpoint, req.repeatOf)
		}
	}
	return checkBody(req.endpoint, rep)
}

// uncached clears the one field a cache hit may change.
func uncached(body []byte) []byte {
	return bytes.Replace(body, []byte(`"cached":true`), []byte(`"cached":false`), 1)
}

// checkBody checks a reply's output against its endpoint's guarantees and
// records whether the cache served it.
func checkBody(endpoint string, rep *reply) error {
	switch endpoint {
	case "backbone":
		var r api.BackboneResponse
		if err := json.Unmarshal(rep.body, &r); err != nil {
			return fmt.Errorf("backbone: %w", err)
		}
		rep.cached = r.Cached
		if !r.IsWCDS || !r.Valid || len(r.Dominators) == 0 {
			return fmt.Errorf("backbone: %d dominators, isWCDS=%v valid=%v", len(r.Dominators), r.IsWCDS, r.Valid)
		}
	case "dilation":
		var r api.DilationResponse
		if err := json.Unmarshal(rep.body, &r); err != nil {
			return fmt.Errorf("dilation: %w", err)
		}
		rep.cached = r.Cached
		if !r.TopoBoundHolds || !r.GeoBoundHolds || r.Pairs == 0 {
			return fmt.Errorf("dilation: Theorem 11 bounds topo=%v geo=%v over %d pairs", r.TopoBoundHolds, r.GeoBoundHolds, r.Pairs)
		}
	case "broadcast":
		var r api.BroadcastResponse
		if err := json.Unmarshal(rep.body, &r); err != nil {
			return fmt.Errorf("broadcast: %w", err)
		}
		rep.cached = r.Cached
		if !r.BackboneCovered {
			return errors.New("broadcast: backbone broadcast did not cover the network")
		}
	}
	return nil
}

type serveBench struct {
	seed   int64
	client *http.Client
	url    string
	svc    *wcdsnet.Service
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	used   bool          // the running service has seen the timed sequence
	warm   int           // warm-up sequences sent so far
}

func newServe(seed int64) bench {
	return &serveBench{seed: seed, client: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}}
}

// setup starts a fresh service on a loopback port and warms it with a
// request sequence of its own.
func (b *serveBench) setup() error {
	b.close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h, svc := wcdsnet.ServeHandler(wcdsnet.ServiceOptions{})
	b.svc, b.srv, b.url = svc, &http.Server{Handler: h}, "http://"+ln.Addr().String()
	b.served = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		defer close(done)
		_ = srv.Serve(ln)
	}(b.srv, b.served)
	b.used = false

	b.warm++
	gen := newReqGen(^b.seed - int64(b.warm))
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	reqs := make([]request, serveWarmups)
	for i := range reqs {
		reqs[i] = gen.next()
	}
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(reqs); i += serveClients {
				rep := &reply{}
				b.post(reqs[i], time.Now(), rep)
				// Only a failed round trip stops the set-up: the service
				// is not serving. Replies are checked in the timed ops.
				if rep.err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("warm-up: %w", rep.err)
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return firstErr
}

// post sends one request and reads the whole reply into rep.
func (b *serveBench) post(req request, origin time.Time, rep *reply) {
	start := time.Now()
	resp, err := b.client.Post(b.url+"/v1/"+req.endpoint, "application/json", bytes.NewReader(req.body))
	if err == nil {
		rep.status = resp.StatusCode
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	rep.err = err
	rep.latMS = ms(end.Sub(start))
	rep.endS = end.Sub(origin).Seconds()
}

func (b *serveBench) run(budget time.Duration, traced bool, o *outcome) {
	if b.used {
		// The service's cache holds this sequence's replies from the
		// earlier pass; a second pass over the same inputs needs a fresh
		// service or every request would be a cache hit.
		if err := b.setup(); err != nil {
			o.record(traced, 0, err)
			return
		}
	}
	b.used = true

	gen := newReqGen(b.seed)
	var (
		mu      sync.Mutex
		reqs    []request
		replies []*reply
		wg      sync.WaitGroup
	)
	start := time.Now()
	cutPeakRSS()
	lastCut := start
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < budget {
				mu.Lock()
				req := gen.next()
				reqs = append(reqs, req)
				mine := &reply{done: make(chan struct{})}
				replies = append(replies, mine)
				var orig *reply
				if req.repeatOf >= 0 {
					orig = replies[req.repeatOf]
				}
				mu.Unlock()
				if orig != nil {
					// A repeat goes out once the reply it repeats is in,
					// so it meets the cache, not the request in flight.
					<-orig.done
				}
				var s *span
				if traced {
					s = o.tr.start("http.POST /v1/"+req.endpoint, 0)
				}
				b.post(req, start, mine)
				if s != nil {
					s.end()
				}
				err := checkReply(req, mine, orig)
				mu.Lock()
				o.record(traced, mine.latMS, err)
				if now := time.Now(); !traced && now.Sub(lastCut) >= time.Second {
					// Two clients' requests overlap, so a request has no
					// peak of its own: serve records it per second instead.
					o.mem = append(o.mem, cutPeakRSS())
					lastCut = now
				}
				mu.Unlock()
				close(mine.done)
			}
		}()
	}
	wg.Wait()
	if !traced {
		ends := make([]float64, 0, len(replies))
		for _, r := range replies {
			if r.err == nil && r.status == http.StatusOK {
				ends = append(ends, r.endS)
			}
		}
		o.rate = chunkRate(ends, rateChunk)
		return
	}
	b.traceLayers(o, reqs, replies)
}

// traceLayers derives the service's layer figures from the traced pass
// and recomputes a sample of its requests in process through the facade.
func (b *serveBench) traceLayers(o *outcome, reqs []request, replies []*reply) {
	var ok, hits, rejected int
	var reqBytes, respBytes float64
	trip := map[string][]float64{}
	for i, r := range replies {
		reqBytes += float64(len(reqs[i].body))
		respBytes += float64(len(r.body))
		if r.status == http.StatusTooManyRequests {
			rejected++
		}
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		ok++
		if r.cached {
			hits++
		} else {
			trip[reqs[i].endpoint] = append(trip[reqs[i].endpoint], r.latMS)
		}
	}
	n := float64(len(replies))
	o.fixed["service.cache_hit_ratio"] = float64(hits) / float64(max(ok, 1))
	o.fixed["service.rejected"] = float64(rejected)
	o.fixed["http.req_bytes"] = reqBytes / n
	o.fixed["http.resp_bytes"] = respBytes / n

	done := map[string]int{}
	for i, req := range reqs {
		r := replies[i]
		if req.repeatOf >= 0 || r.cached || r.status != http.StatusOK || done[req.endpoint] >= serveReplays {
			continue
		}
		done[req.endpoint]++
		if err := replayRequest(o, req, r); err != nil {
			o.failed++
			o.errs = append(o.errs, fmt.Sprintf("replay of request %d: %v", i, err))
		}
	}
	for _, ep := range endpoints {
		compute := median(o.layers["service.compute_ms."+ep])
		if len(trip[ep]) > 0 && compute > 0 {
			o.fixed["service.overhead_ms."+ep] = median(trip[ep]) - compute
		}
	}
}

// replayRequest recomputes one served request in process, a span per
// layer, and checks the result against the service's reply.
func replayRequest(o *outcome, req request, rep *reply) error {
	tr := o.tr
	root := tr.start("service.compute."+req.endpoint, 0)
	defer func() { o.layers.add("service.compute_ms."+req.endpoint, root.end()) }()
	gen := func(spec api.NetworkSpec) (*wcdsnet.Network, error) {
		s := tr.start("wcdsnet.GenerateNetwork", root.id)
		defer func() { o.layers.add("udg.gen_ms", s.end()) }()
		return wcdsnet.GenerateNetwork(spec.Seed, spec.N, spec.AvgDegree)
	}
	switch req.endpoint {
	case "backbone":
		var in api.BackboneRequest
		var want api.BackboneResponse
		if err := unmarshal2(req.body, &in, rep.body, &want); err != nil {
			return err
		}
		nw, err := gen(in.NetworkSpec)
		if err != nil {
			return err
		}
		s := tr.start("wcdsnet.Run.sync", root.id)
		res, st, err := wcdsnet.Run(nw, wcdsnet.AlgoII, wcdsnet.WithEngine(wcdsnet.EngineSync), wcdsnet.WithPhases())
		o.layers.add("wcds.sync_ms", s.end())
		if err != nil {
			return err
		}
		if !slices.Equal(res.Dominators, want.Dominators) || st.Messages != want.Messages {
			return fmt.Errorf("backbone differs: %d dominators, %d msgs; service %d, %d",
				len(res.Dominators), st.Messages, len(want.Dominators), want.Messages)
		}
	case "dilation":
		var in api.DilationRequest
		var want api.DilationResponse
		if err := unmarshal2(req.body, &in, rep.body, &want); err != nil {
			return err
		}
		nw, err := gen(in.NetworkSpec)
		if err != nil {
			return err
		}
		s := tr.start("wcdsnet.Run.centralized", root.id)
		res, _, err := wcdsnet.Run(nw, wcdsnet.AlgoII)
		o.layers.add("algo.centralized_ms", s.end())
		if err != nil {
			return err
		}
		s = tr.start("wcdsnet.MeasureDilationWorkers", root.id)
		a0 := readAllocs()
		report, err := wcdsnet.MeasureDilationWorkers(nw, res, in.Pairs, in.SampleSeed, in.MeasureWorkers)
		a1 := readAllocs()
		o.layers.add("spanner.dilation_ms", s.end())
		if err != nil {
			return err
		}
		o.layers.add("spanner.mallocs_per_report", float64(a1.since(a0).mallocs))
		if report.Pairs != want.Pairs || report.AvgTopoRatio != want.AvgTopoRatio || report.AvgGeoRatio != want.AvgGeoRatio {
			return fmt.Errorf("dilation differs: %d pairs avg %g/%g; service %d pairs avg %g/%g",
				report.Pairs, report.AvgTopoRatio, report.AvgGeoRatio, want.Pairs, want.AvgTopoRatio, want.AvgGeoRatio)
		}
	case "broadcast":
		var in api.BroadcastRequest
		var want api.BroadcastResponse
		if err := unmarshal2(req.body, &in, rep.body, &want); err != nil {
			return err
		}
		nw, err := gen(in.NetworkSpec)
		if err != nil {
			return err
		}
		s := tr.start("wcdsnet.AlgorithmIIWithTables", root.id)
		res, tables, _, err := wcdsnet.AlgorithmIIWithTables(nw)
		if err != nil {
			return err
		}
		relay := route.RelaySet(nw.G, nw.ID, res, tables)
		o.layers.add("wcds.detailed_ms", s.end())
		s = tr.start("route.Broadcast", root.id)
		bc := route.Broadcast(nw.G, relay, in.Source)
		flood := route.BlindFlood(nw.G, in.Source)
		o.layers.add("route.broadcast_ms", s.end())
		if bc.Transmissions != want.BackboneTransmissions || flood.Transmissions != want.FloodTransmissions {
			return fmt.Errorf("broadcast differs: %d/%d transmissions; service %d/%d",
				bc.Transmissions, flood.Transmissions, want.BackboneTransmissions, want.FloodTransmissions)
		}
	}
	return nil
}

func unmarshal2(a []byte, va any, b []byte, vb any) error {
	if err := json.Unmarshal(a, va); err != nil {
		return err
	}
	return json.Unmarshal(b, vb)
}

func (b *serveBench) finish(*outcome) {}

func (b *serveBench) close() {
	if b.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx)
	<-b.served
	b.svc.Close()
	b.client.CloseIdleConnections()
	b.srv, b.svc = nil, nil
}
