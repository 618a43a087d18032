package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lancet"
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
		// stored first, so only the lancet lookups join flights.
		svc := New(Config{})
		const body, callers = `{"seed": 9}`, 4
		if w := postPlan(t, svc.Handler(), `{"seed": 9, "framework": "tutel", "baseline": "none"}`); w.Code != http.StatusOK {
			t.Fatalf("storing the baseline: status %d, body %s", w.Code, w.Body)
		}
		c := canonicalBody(t, body)
		started, release := make(chan struct{}), make(chan struct{})
		leader := make(chan error, 1)
		go func() {
			_, _, err := svc.fill(c, c.planKey(c.framework), c.framework, nil, func() (*lancet.Session, error) {
				close(started)
				<-release
				return svc.session(c)
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
