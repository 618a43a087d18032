package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// planbody_test.go pins the /v1/plan hit path (DESIGN.md §9): every body
// handlePlan writes around the stored results' sealed bytes equals what
// the indenting encoder writes for the same PlanResponse, and a result
// JSON cannot encode is an error rather than a stored, served plan.

// canonicalBody decodes and canonicalizes a /v1/plan body.
func canonicalBody(t *testing.T, body string) *canonical {
	t.Helper()
	var req PlanRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	c, err := req.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// referenceBody is what writeJSON writes for body's PlanResponse over the
// results svc's memory tier holds for it.
func referenceBody(t *testing.T, svc *Service, body string) []byte {
	t.Helper()
	c := canonicalBody(t, body)
	stored := func(fw string) *Result {
		r, ok := svc.plans.Get(c.planKey(fw))
		if !ok {
			t.Fatalf("%s: no stored %s result", body, fw)
		}
		return r
	}
	resp := PlanResponse{Request: c.echo(), Result: stored(c.framework)}
	if c.baseline != "" {
		resp.Baseline = stored(c.baseline)
		if res, base := resp.Result, resp.Baseline; !res.OOM && !base.OOM && res.IterationMs > 0 {
			resp.SpeedupOverBaseline = base.IterationMs / res.IterationMs
		}
	}
	w := httptest.NewRecorder()
	writeJSON(w, http.StatusOK, resp)
	return w.Body.Bytes()
}

// checkPlanBody fails unless w, svc's answer to body, is a 200 in cache
// state want whose headers and bytes equal the reference encoder's.
func checkPlanBody(t *testing.T, svc *Service, body, want string, w *httptest.ResponseRecorder) {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("%s: status %d, body %s", body, w.Code, w.Body)
	}
	if got := w.Header().Get("X-Lancet-Cache"); got != want {
		t.Errorf("%s: cache state %q, want %q", body, got, want)
	}
	if got := w.Header().Get("Content-Type"); got != "application/json; charset=utf-8" {
		t.Errorf("%s: Content-Type %q", body, got)
	}
	if ref := referenceBody(t, svc, body); !bytes.Equal(w.Body.Bytes(), ref) {
		t.Errorf("%s (%s): body differs from the reference encoder's\n got %s\nwant %s", body, want, w.Body, ref)
	}
}

// echoRef is the request echo as the indenting encoder writes it, the
// spelling appendEcho replaced.
func echoRef(t testing.TB, c *canonical) []byte {
	t.Helper()
	b, err := json.MarshalIndent(c.echo(), "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkEchoMatchesRef fails unless c's appended echo equals echoRef.
func checkEchoMatchesRef(t testing.TB, c *canonical) {
	t.Helper()
	if got, want := c.appendEcho(nil), echoRef(t, c); !bytes.Equal(got, want) {
		t.Fatalf("appended echo differs from the indenting encoder's\n got %s\nwant %s", got, want)
	}
}

// checkJSONFloat fails unless appendJSONFloat writes x as json.Marshal does.
func checkJSONFloat(t testing.TB, x float64) {
	t.Helper()
	want, err := json.Marshal(x)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSONFloat([]byte("prefix "), x); string(got) != "prefix "+string(want) {
		t.Fatalf("appendJSONFloat(%v) = %q, want %q", x, got[len("prefix "):], want)
	}
}

// requestFloats lists every float a request body carries.
func requestFloats(r PlanRequest) []float64 {
	xs := []float64{r.Options.GroupUs}
	if r.Routing != nil {
		xs = append(xs, r.Routing.Alpha, r.Routing.HotShare)
	}
	if r.Topology != nil {
		xs = append(xs, r.Topology.Oversub, r.Topology.SpineShare)
	}
	return xs
}

// TestEchoMatchesReferenceEncoder runs the plan-cold shapes and requests
// with every echo member set, an escaped string among them, through
// appendEcho; FuzzPlanRequest covers arbitrary requests.
func TestEchoMatchesReferenceEncoder(t *testing.T) {
	reqs := planColdRequests()
	seed := int64(-3)
	reqs = append(reqs,
		PlanRequest{
			Model: "gpt2-l", Classes: []ClassSpec{{GPU: "A100", Nodes: 1}, {GPU: "V100", Nodes: 2}},
			Batch: 3, Gate: "top2", Framework: "lancet", Baseline: "fastermoe", Seed: &seed,
			Routing:      &RoutingSpec{Kind: "zipf", Alpha: 1e-7},
			Topology:     &TopologySpec{NodesPerRack: 1, Oversub: 2.5, SpineShare: 0.25},
			SharedExpert: true, ZeRO3: true,
			Options: PlanOptions{
				MaxPartitions: 4, GroupUs: 1e21, MaxRangeGroups: 2, DisableDWSchedule: true,
				DisablePartition: true, DWFirstFit: true, PrioritizeAllToAll: true,
				AssumeUniformRouting: true, AssumeFlatTopology: true, AssumeUniformHardware: true, AssumeSoleTenancy: true,
			},
			WhatIf: &WhatIfSpec{LostNodes: []int{2, 0}},
		},
		PlanRequest{Routing: &RoutingSpec{Kind: "hot", HotShare: 0.3}, Options: PlanOptions{GroupUs: 123.456}},
	)
	for _, req := range reqs {
		c, err := req.canonicalize()
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		checkEchoMatchesRef(t, c)
	}

	// Canonical vocabularies never need an escape; a string that does is
	// still quoted as the encoder quotes it.
	c := canonicalBody(t, `{}`)
	for _, name := range []string{`a"b`, `a\b`, "a<b", "a>b", "a&b", "a\x01b", "a\u2028b", "aéb", "a\xffb"} {
		c.cfg.Name = name
		checkEchoMatchesRef(t, c)
	}
}

// TestAppendJSONFloatMatchesEncoder covers both sides of encoding/json's
// 'f'/'e' switch, the exponent cleanup and the extremes.
func TestAppendJSONFloatMatchesEncoder(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 95.521, 123456789.125, -2.5e-3,
		1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-10, 1e-100, 5e-324,
		9.99e20, 999999999999999999999, 1e21, -1e21, 1.5e22, 1e100, math.MaxFloat64,
	} {
		checkJSONFloat(t, x)
	}
}

// TestNonFiniteSpeedupIsAnError: a speedup that overflows to +Inf is the
// encoder's error, as it was when the speedup went through json.Marshal.
func TestNonFiniteSpeedupIsAnError(t *testing.T) {
	c := canonicalBody(t, `{}`)
	res := &Result{Framework: "lancet", IterationMs: 1e-300, encoded: []byte("{}")}
	base := &Result{Framework: "tutel", IterationMs: 1e300, encoded: []byte("{}")}
	if _, err := planBody(c, res, base); err == nil || err.Error() != "json: unsupported value: +Inf" {
		t.Errorf("planBody error = %v, want json: unsupported value: +Inf", err)
	}
}

// TestPlanBodyMatchesReferenceEncoder covers every cache state, every
// baseline, an OOM pair, a what-if result and the plan-cold shapes.
func TestPlanBodyMatchesReferenceEncoder(t *testing.T) {
	t.Run("baselines", func(t *testing.T) {
		// Each baseline gets its own seed, so its lancet plan is a miss too.
		svc := New(Config{})
		bodies := []string{`{}`}
		for i, base := range []string{"tutel", "deepspeed", "raf", "fastermoe", "none"} {
			bodies = append(bodies, fmt.Sprintf(`{"baseline": %q, "seed": %d}`, base, i+2))
		}
		for _, body := range bodies {
			checkPlanBody(t, svc, body, "miss", postPlan(t, svc.Handler(), body))
			checkPlanBody(t, svc, body, "hit", postPlan(t, svc.Handler(), body))
		}
	})

	t.Run("oom and what-if", func(t *testing.T) {
		svc := New(Config{})
		const oom = `{"cluster": "A100", "baseline": "deepspeed"}`
		for _, body := range []string{oom, `{"gpus": 32, "what_if": {"lost_nodes": [1]}}`} {
			checkPlanBody(t, svc, body, "miss", postPlan(t, svc.Handler(), body))
			checkPlanBody(t, svc, body, "hit", postPlan(t, svc.Handler(), body))
		}
		w := postPlan(t, svc.Handler(), oom)
		if !strings.Contains(w.Body.String(), `"oom": true`) || strings.Contains(w.Body.String(), "speedup_over_baseline") {
			t.Errorf("OOM pair must mark the OOM side and omit the speedup:\n%s", w.Body)
		}
	})

	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		bodies := []string{`{}`, `{"baseline": "fastermoe", "seed": 4}`, `{"framework": "raf", "baseline": "none"}`}
		first := openService(t, dir)
		for _, body := range bodies {
			checkPlanBody(t, first, body, "miss", postPlan(t, first.Handler(), body))
		}
		restarted := openService(t, dir)
		for _, body := range bodies {
			checkPlanBody(t, restarted, body, "disk", postPlan(t, restarted.Handler(), body))
			checkPlanBody(t, restarted, body, "hit", postPlan(t, restarted.Handler(), body))
		}
	})

	t.Run("shared", func(t *testing.T) {
		// Hold a flight for the lancet key open until every request has
		// joined it, so each one reports "shared". The tutel baseline is
		// stored first, so only the lancet lookups join flights. The held
		// flight stores what a fresh service computes for the key.
		svc := New(Config{})
		const body, callers = `{"seed": 9}`, 4
		if w := postPlan(t, svc.Handler(), `{"seed": 9, "framework": "tutel", "baseline": "none"}`); w.Code != http.StatusOK {
			t.Fatalf("storing the baseline: status %d, body %s", w.Code, w.Body)
		}
		c := canonicalBody(t, body)
		started, release := make(chan struct{}), make(chan struct{})
		leader := make(chan error, 1)
		go func() {
			_, _, err := svc.plans.Fill(c.planKey(c.framework), func() (*Result, error) {
				close(started)
				<-release
				r, _, err := New(Config{}).resultFor(c, c.framework, nil)
				return r, err
			})
			leader <- err
		}()
		<-started
		ws := make([]*httptest.ResponseRecorder, callers)
		var wg sync.WaitGroup
		for i := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws[i] = postPlan(t, svc.Handler(), body)
			}()
		}
		deadline := time.Now().Add(30 * time.Second)
		for svc.plans.Stats().Deduplicated < callers {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of %d requests joined the flight", svc.plans.Stats().Deduplicated, callers)
			}
			time.Sleep(time.Millisecond)
		}
		close(release)
		wg.Wait()
		if err := <-leader; err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			checkPlanBody(t, svc, body, "shared", w)
		}
	})

	t.Run("plan-cold shapes", func(t *testing.T) {
		svc := New(Config{})
		for _, seed := range []int64{1, 7, 23} {
			for _, req := range planColdRequests() {
				req.Seed = &seed
				blob, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				body := string(blob)
				checkPlanBody(t, svc, body, "miss", postPlan(t, svc.Handler(), body))
				checkPlanBody(t, svc, body, "hit", postPlan(t, svc.Handler(), body))
			}
		}
	})
}

// TestUnencodableResultIsAnError: a 1e308 spine oversubscription overflows
// the simulated times to +Inf, which JSON cannot encode. The request gets
// the 500 envelope, neither tier stores the result, and a sweep keeps
// serving its finite points.
func TestUnencodableResultIsAnError(t *testing.T) {
	svc := openService(t, t.TempDir())
	h := svc.Handler()
	for range 2 {
		w := postPlan(t, h, `{"gpus": 32, "topology": {"oversub": 1e308}, "baseline": "none"}`)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500; body %q", w.Code, w.Body)
		}
		env := decodeEnvelope(t, w)
		if env.Err.Code != CodeInternal || !strings.Contains(env.Err.Message, "unsupported value: +Inf") {
			t.Errorf("envelope %+v, want code internal naming the encode failure", env.Err)
		}
	}
	st := svc.Stats()
	if st.PlanStore.Size != 0 || st.DiskStore.Artifacts != 0 {
		t.Errorf("unservable result stored: memory tier %d entries, disk %d artifacts", st.PlanStore.Size, st.DiskStore.Artifacts)
	}

	const grid = `"gpus": [8, 32], "topology": {"oversub": 1e308}`
	check := func(mode string, items []SweepItem) {
		t.Helper()
		if len(items) != 2 || items[0].Result == nil || items[0].Err != "" {
			t.Fatalf("%s sweep: the finite 8-GPU point was lost: %+v", mode, items)
		}
		if items[1].Result != nil || !strings.Contains(items[1].Err, "unsupported value: +Inf") {
			t.Errorf("%s sweep: the overflowing 32-GPU point = %+v, want the encode error", mode, items[1])
		}
	}
	w := postSweep(t, h, `{`+grid+`}`)
	if w.Code != http.StatusOK {
		t.Fatalf("buffered sweep status %d: %s", w.Code, w.Body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("buffered sweep body %q: %v", w.Body, err)
	}
	check("buffered", resp.Results)
	w = postSweep(t, h, `{`+grid+`, "stream": true}`)
	check("streamed", decodeStream(t, w.Body, 2))
}

// BenchmarkServicePlanHit measures a /v1/plan memory-tier hit of the
// default request, lancet plus the tutel baseline. perf_floor.txt's exact
// allocs/op floor catches a return to re-encoding stored results, to
// fmt-built plan keys or to a goroutine per baseline hit.
func BenchmarkServicePlanHit(b *testing.B) {
	h := New(Config{}).Handler()
	serve := func(want string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(`{}`)))
		if w.Code != http.StatusOK || w.Header().Get("X-Lancet-Cache") != want {
			b.Fatalf("status %d, cache %q, want %s: %s", w.Code, w.Header().Get("X-Lancet-Cache"), want, w.Body)
		}
	}
	serve("miss")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve("hit")
	}
}

// BenchmarkServiceDiskHit measures a /v1/plan disk-tier hit of the default
// request, lancet plus the tutel baseline, both read from their artifacts:
// a one-entry memory tier over three stored seeds, which the loop rotates.
// perf_floor.txt's exact allocs/op floor catches a return to re-encoding a
// promoted artifact or the request echo.
func BenchmarkServiceDiskHit(b *testing.B) {
	const keys = 3
	dir := b.TempDir()
	bodies := make([]string, keys)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"seed": %d}`, i+1)
	}
	serve := func(h http.Handler, body, want string) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body)))
		if w.Code != http.StatusOK || w.Header().Get("X-Lancet-Cache") != want {
			b.Fatalf("status %d, cache %q, want %s: %s", w.Code, w.Header().Get("X-Lancet-Cache"), want, w.Body)
		}
	}
	open := func() *Service {
		svc, err := Open(Config{CacheSize: 1}, dir)
		if err != nil {
			b.Fatal(err)
		}
		return svc
	}
	h := open().Handler()
	for _, body := range bodies {
		serve(h, body, "miss")
	}
	svc := open()
	h = svc.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve(h, bodies[i%keys], "disk")
	}
	b.StopTimer()
	if ds := svc.Stats().DiskStore; ds.Hits != int64(2*b.N) {
		b.Fatalf("%d disk hits over %d requests, want two per request", ds.Hits, b.N)
	}
}
