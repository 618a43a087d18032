package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lancet"
)

// fastPlanBody is the cheapest interesting request: a baseline framework
// (no DP) with the comparison disabled.
const fastPlanBody = `{"framework": "raf", "baseline": "none"}`

func postPlan(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// decodeEnvelope decodes a non-2xx body and checks the envelope invariants:
// the body is exactly {"error": {"code", "message"}} and a code is always
// present.
func decodeEnvelope(t *testing.T, w *httptest.ResponseRecorder) errorResponse {
	t.Helper()
	var e errorResponse
	dec := json.NewDecoder(w.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&e); err != nil {
		t.Fatalf("error body is not exactly the envelope: %v", err)
	}
	if e.Err.Code == "" {
		t.Error("error envelope missing code")
	}
	return e
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	return decodeEnvelope(t, w).Err.Message
}

// TestPlanRejectsBadRequests pins each bad request's 400 and error code,
// and that none of them builds a session: a fleet over maxFleetGPUs is
// rejected before its cost model would index every GPU pair.
func TestPlanRejectsBadRequests(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	cases := []struct {
		name, body, wantInError string
		wantCode                ErrorCode
	}{
		{"bad json", `{"model": `, "bad request body", CodeBadRequest},
		{"unknown field", `{"modle": "gpt2-s"}`, "unknown field", CodeBadRequest},
		{"unknown model", `{"model": "gpt3"}`, "unknown model", CodeUnknownModel},
		{"unknown gate", `{"gate": "softmax"}`, "unknown gate", CodeUnknownGate},
		{"unknown framework", `{"framework": "megatron"}`, "unknown framework", CodeUnknownFramework},
		{"unknown baseline", `{"baseline": "megatron"}`, "unknown framework", CodeUnknownFramework},
		{"unknown cluster", `{"cluster": "H100"}`, "H100", CodeBadCluster},
		{"bad gpu count", `{"gpus": 12}`, "12", CodeBadCluster},
		// The skew shorthand is gone; every spelling of it is an unknown field.
		{"negative skew", `{"skew": -1}`, `unknown field "skew"`, CodeBadRequest},
		{"skew and routing", `{"skew": 1, "routing": {"kind": "zipf", "alpha": 1}}`, `unknown field "skew"`, CodeBadRequest},
		{"trailing garbage", fastPlanBody + `garbage`, "bad request body", CodeBadRequest},
		{"second value", fastPlanBody + ` {"model": "gpt3"}`, "data after the JSON value", CodeBadRequest},
		{"unknown routing kind", `{"routing": {"kind": "pareto"}}`, "unknown routing kind", CodeBadRouting},
		{"zipf without alpha", `{"routing": {"kind": "zipf"}}`, "alpha > 0", CodeBadRouting},
		{"zipf with hot share", `{"routing": {"kind": "zipf", "alpha": 1, "hot_share": 0.5}}`, "no hot_share", CodeBadRouting},
		{"hot share out of range", `{"routing": {"kind": "hot", "hot_share": 1.5}}`, "hot_share < 1", CodeBadRouting},
		{"uniform with params", `{"routing": {"kind": "uniform", "alpha": 2}}`, "no alpha", CodeBadRouting},
		{"baseline equals framework", `{"framework": "tutel", "baseline": "tutel"}`, "use baseline", CodeConflictingFields},
		{"negative options", `{"options": {"max_partitions": -1}}`, "non-negative", CodeBadRequest},
		{"oversized body", `{"model": "` + strings.Repeat("x", 1<<20) + `"}`, "too large", CodeBadRequest},
		{"conflicting fleet", `{"cluster": "V100", "classes": [{"gpu": "A100", "nodes": 2}]}`, "not both", CodeConflictingFields},
		{"bad topology", `{"topology": {"oversub": 0.5}}`, "Oversubscription", CodeBadTopology},
		{"oversized fleet", `{"gpus": 65536}`, "65536 GPUs", CodeBadCluster},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postPlan(t, h, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", w.Code)
			}
			e := decodeEnvelope(t, w)
			if !strings.Contains(e.Err.Message, tc.wantInError) {
				t.Errorf("error %q does not mention %q", e.Err.Message, tc.wantInError)
			}
			if e.Err.Code != tc.wantCode {
				t.Errorf("error code = %q, want %q", e.Err.Code, tc.wantCode)
			}
			if n := svc.sessions.Len(); n != 0 {
				t.Errorf("%d sessions built, want none", n)
			}
		})
	}
}

// TestPlanHugeKnobsStayBounded pins that one request cannot exhaust the
// server through the DP's knobs: the partition DP's memory follows the
// partition counts its windows admit, not max_partitions, its candidate
// records follow the candidates it considers, and a max_range_groups near
// MaxInt bounds nothing but does not overflow. A tiny group_us with an
// unbounded range is where the records are largest: 175,185 candidates
// on the default GPT2-S 16×V100.
func TestPlanHugeKnobsStayBounded(t *testing.T) {
	h := New(Config{}).Handler()
	for _, body := range []string{
		`{"baseline": "none", "options": {"max_partitions": 100000}}`,
		`{"baseline": "none", "options": {"group_us": 1e-6, "max_range_groups": 9223372036854775807, "max_partitions": 100000}}`,
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		w := postPlan(t, h, body)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", body, w.Code, w.Body)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
			t.Errorf("%s allocated %d MiB, want < 64 MiB", body, grew>>20)
		}
	}
	for _, body := range []string{
		`{"baseline": "none", "options": {"max_partitions": 4611686018427387904}}`,
		`{"baseline": "none", "options": {"max_range_groups": 9223372036854775807}}`,
	} {
		if w := postPlan(t, h, body); w.Code != http.StatusOK {
			t.Errorf("%s: status %d, body %s", body, w.Code, w.Body)
		}
	}
}

func TestPlanHappyPath(t *testing.T) {
	w := postPlan(t, New(Config{}).Handler(), fastPlanBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp PlanResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	// Defaults resolved and echoed.
	if resp.Request.Model != "GPT2-S-MoE" || resp.Request.Cluster != "V100" ||
		resp.Request.GPUs != 16 || resp.Request.Gate != "switch" ||
		resp.Request.Batch != 16 || resp.Request.Seed == nil || *resp.Request.Seed != 1 ||
		resp.Request.Baseline != BaselineNone {
		t.Errorf("echoed request has unresolved defaults: %+v", resp.Request)
	}
	if resp.Result == nil {
		t.Fatal("no result")
	}
	if resp.Result.PredictedUs <= 0 {
		t.Errorf("predicted µs = %g, want > 0", resp.Result.PredictedUs)
	}
	if resp.Result.IterationMs <= 0 {
		t.Errorf("iteration ms = %g, want > 0", resp.Result.IterationMs)
	}
	if resp.Baseline != nil {
		t.Errorf("baseline %q disabled but present", resp.Baseline.Framework)
	}
}

func TestPlanBaselineComparison(t *testing.T) {
	w := postPlan(t, New(Config{}).Handler(), `{"framework": "tutel", "baseline": "raf"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp PlanResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Baseline == nil || resp.Baseline.Framework != lancet.FrameworkRAF {
		t.Fatalf("baseline missing or wrong: %+v", resp.Baseline)
	}
	if resp.SpeedupOverBaseline <= 1 {
		t.Errorf("Tutel over RAF speedup = %g, want > 1", resp.SpeedupOverBaseline)
	}
}

func TestPlanCacheHitIsByteIdentical(t *testing.T) {
	h := New(Config{}).Handler()
	first := postPlan(t, h, fastPlanBody)
	second := postPlan(t, h, fastPlanBody)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("statuses %d/%d", first.Code, second.Code)
	}
	if got := first.Header().Get("X-Lancet-Cache"); got != "miss" {
		t.Errorf("first request cache state = %q, want miss", got)
	}
	if got := second.Header().Get("X-Lancet-Cache"); got != "hit" {
		t.Errorf("second request cache state = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached response body differs from the fresh one")
	}
}

// TestRoutingKeysNeverCollide pins the cache-key canonicalization of
// DESIGN.md §10: a skewed request must never be served a uniform plan (or
// vice versa), while equivalent spellings of the same routing share one
// entry.
func TestRoutingKeysNeverCollide(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	uniform := postPlan(t, h, fastPlanBody)
	zipf := postPlan(t, h, `{"framework": "raf", "baseline": "none", "routing": {"kind": "zipf", "alpha": 1.5}}`)
	hot := postPlan(t, h, `{"framework": "raf", "baseline": "none", "routing": {"kind": "hot", "hot_share": 0.5}}`)
	for _, w := range []*httptest.ResponseRecorder{uniform, zipf, hot} {
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", w.Code, w.Body)
		}
		if got := w.Header().Get("X-Lancet-Cache"); got != "miss" {
			t.Errorf("distinct routing should be a fresh computation, got %q", got)
		}
	}
	if n := svc.Computations(); n != 3 {
		t.Errorf("3 distinct routings ran %d computations, want 3", n)
	}
	// Kind spellings are case- and space-insensitive.
	spelled := postPlan(t, h, `{"framework": "raf", "baseline": "none", "routing": {"kind": " ZIPF ", "alpha": 1.5}}`)
	if got := spelled.Header().Get("X-Lancet-Cache"); got != "hit" {
		t.Errorf("respelled zipf kind should hit the zipf cache entry, got %q", got)
	}
	// The explicit uniform spelling canonicalizes onto the default entry.
	explicit := postPlan(t, h, `{"framework": "raf", "baseline": "none", "routing": {"kind": "uniform"}}`)
	if got := explicit.Header().Get("X-Lancet-Cache"); got != "hit" {
		t.Errorf("explicit uniform should hit the default cache entry, got %q", got)
	}
	if n := svc.Computations(); n != 3 {
		t.Errorf("equivalent spellings recomputed: %d computations, want 3", n)
	}
}

// TestRoutingEchoIsResubmittable pins that the echoed canonical request
// reproduces the same cache entry when posted back.
func TestRoutingEchoIsResubmittable(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	first := postPlan(t, h, `{"framework": "raf", "baseline": "none", "routing": {"kind": "Zipf", "alpha": 2}}`)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", first.Code, first.Body)
	}
	var resp PlanResponse
	if err := json.NewDecoder(first.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Request.Routing == nil || resp.Request.Routing.Kind != RoutingZipf ||
		resp.Request.Routing.Alpha != 2 {
		t.Fatalf("echo should canonicalize the routing kind: %+v", resp.Request)
	}
	echoed, err := json.Marshal(resp.Request)
	if err != nil {
		t.Fatal(err)
	}
	second := postPlan(t, h, string(echoed))
	if second.Code != http.StatusOK {
		t.Fatalf("resubmitted echo status = %d, body %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Lancet-Cache"); got != "hit" {
		t.Errorf("resubmitted echo cache state = %q, want hit", got)
	}
}

// TestBurstComputesOnce is the acceptance check: M identical in-flight
// requests produce exactly one plan computation, and every caller sees the
// same bytes. Run with -race.
func TestBurstComputesOnce(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const callers = 12
	bodies := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/plan", "application/json", strings.NewReader(fastPlanBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("status %d", resp.StatusCode)
			}
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if got := svc.Computations(); got != 1 {
		t.Errorf("burst of %d identical requests ran %d computations, want exactly 1", callers, got)
	}
	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("caller %d saw different bytes than caller 0", i)
		}
	}
	st := svc.Stats()
	if st.Computations+st.Deduplicated+st.PlanStore.Hits < callers {
		t.Errorf("counters don't cover the burst: %+v", st)
	}
}

// TestServiceMatchesCLIComputation pins the serving path to the CLI path:
// a /v1/plan result must be identical to calling service.Compute directly
// on an equivalent session — which is exactly what cmd/lancet does.
func TestServiceMatchesCLIComputation(t *testing.T) {
	w := postPlan(t, New(Config{}).Handler(), fastPlanBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp PlanResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}

	sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Compute(sess, lancet.FrameworkRAF, 1, lancet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(direct)
	got, _ := json.Marshal(resp.Result)
	if !bytes.Equal(want, got) {
		t.Errorf("service result differs from direct computation:\nservice: %s\ndirect:  %s", got, want)
	}
}

func TestPlanStoreEvictionTriggersRecompute(t *testing.T) {
	svc := New(Config{CacheSize: 1})
	h := svc.Handler()
	other := `{"framework": "deepspeed", "baseline": "none"}`
	postPlan(t, h, fastPlanBody) // compute 1, cached
	postPlan(t, h, other)        // compute 2, evicts the raf entry
	w := postPlan(t, h, fastPlanBody)
	if got := w.Header().Get("X-Lancet-Cache"); got != "miss" {
		t.Errorf("evicted entry served as %q, want miss", got)
	}
	if got := svc.Computations(); got != 3 {
		t.Errorf("computations = %d, want 3 (eviction forces a recompute)", got)
	}
	// deepspeed evicted raf, then the recomputed raf evicted deepspeed.
	if ev := svc.Stats().PlanStore.Evictions; ev != 2 {
		t.Errorf("evictions = %d, want 2", ev)
	}
}

func TestSweepGridOrderAndErrorContainment(t *testing.T) {
	svc := New(Config{Parallel: 4})
	body := `{"frameworks": ["raf", "deepspeed"], "gpus": [16, 12]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp SweepResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 4 {
		t.Fatalf("count = %d, want 4 (2 gpus x 2 frameworks)", resp.Count)
	}
	// Grid order is deterministic: gpus-major, framework-minor.
	wantFW := []string{"raf", "deepspeed", "raf", "deepspeed"}
	for i, item := range resp.Results {
		bad := i >= 2 // the gpus=12 half
		if bad {
			if item.Err == "" {
				t.Errorf("item %d (gpus=12) should carry an error", i)
			}
			continue
		}
		if item.Err != "" {
			t.Errorf("item %d failed: %s", i, item.Err)
			continue
		}
		if item.Result == nil || item.Result.Framework != wantFW[i] {
			t.Errorf("item %d framework = %+v, want %s", i, item.Result, wantFW[i])
		}
	}
}

func TestSweepRejectsOversizedGrid(t *testing.T) {
	// 3 models x 2 clusters x 6 gpus x 6 gates x 5 frameworks = 1080 > cap.
	body := `{"models": ["gpt2-s", "gpt2-l", "vit-s"], "clusters": ["V100", "A100"],
		"gpus": [8, 16, 24, 32, 48, 64],
		"gates": ["switch", "top2", "bpr", "random", "hash", "ec"],
		"frameworks": ["deepspeed", "raf", "tutel", "fastermoe", "lancet"]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
	w := httptest.NewRecorder()
	New(Config{}).Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
	if msg := decodeError(t, w); !strings.Contains(msg, "1080") {
		t.Errorf("error %q should name the grid size", msg)
	}

	// 65,536 entries in each of four dimensions: the product is 2^64,
	// which an int64 count wraps to 0, from a body under the body bound.
	zeros := strings.Repeat("0,", 1<<16-1) + "0"
	empties := strings.Repeat(`"",`, 1<<16-1) + `""`
	for _, stream := range []string{"false", "true"} {
		body := `{"models": [` + empties + `], "clusters": [` + empties + `], "gates": [` + empties +
			`], "gpus": [` + zeros + `], "stream": ` + stream + `}`
		if len(body) > maxBodyBytes {
			t.Fatalf("body is %d bytes, over the %d-byte bound", len(body), maxBodyBytes)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		w := httptest.NewRecorder()
		New(Config{}).Handler().ServeHTTP(w, req)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("stream %s: status = %d, want 400", stream, w.Code)
		}
		if e := decodeEnvelope(t, w); e.Err.Code != CodeGridTooLarge {
			t.Errorf("stream %s: error code = %q, want %q", stream, e.Err.Code, CodeGridTooLarge)
		}
	}
}

func TestSweepStopsOnCanceledRequest(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before dispatch: every point must be contained, none computed
	svc := New(Config{Parallel: 2})
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep",
		strings.NewReader(`{"frameworks": ["raf", "deepspeed", "tutel"]}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var resp SweepResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	canceled := 0
	for _, item := range resp.Results {
		if strings.Contains(item.Err, "canceled") {
			canceled++
		}
	}
	if canceled != 3 {
		t.Errorf("%d of 3 points report cancellation: %+v", canceled, resp.Results)
	}
	if got := svc.Computations(); got != 0 {
		t.Errorf("canceled sweep still ran %d computations", got)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/v1/experiments", nil)
	w := httptest.NewRecorder()
	New(Config{}).Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var infos []ExperimentInfo
	if err := json.NewDecoder(w.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) < 16 {
		t.Errorf("registry lists %d experiments, want >= 16", len(infos))
	}
	for _, e := range infos {
		if e.Name == "" || e.Desc == "" {
			t.Errorf("experiment missing name or description: %+v", e)
		}
	}
}

func TestStatsAndHealthz(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	// A Lancet plan (the default framework) exercises the session's shared
	// cost model, so the aggregated cost-model counters must be non-zero;
	// baseline-only requests price against private models.
	postPlan(t, h, `{"baseline": "none"}`)
	postPlan(t, h, `{"baseline": "none"}`)

	req := httptest.NewRequest(http.MethodGet, "/v1/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stats status = %d", w.Code)
	}
	var st StatsResponse
	if err := json.NewDecoder(w.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Computations != 1 || st.PlanStore.Hits != 1 {
		t.Errorf("computations/hits = %d/%d, want 1/1: %+v", st.Computations, st.PlanStore.Hits, st)
	}
	// One fresh computation is one miss: Fill's re-check must not
	// double-count the first request's lookup.
	if st.PlanStore.Misses != 1 {
		t.Errorf("plan-store misses = %d, want 1", st.PlanStore.Misses)
	}
	if st.SessionStore.Size != 1 {
		t.Errorf("session pool size = %d, want 1", st.SessionStore.Size)
	}
	if st.CostModel.Hits+st.CostModel.Misses == 0 {
		t.Error("cost-model counters empty; pooled sessions not aggregated")
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || strings.TrimSpace(w.Body.String()) != "ok" {
		t.Errorf("healthz = %d %q", w.Code, w.Body)
	}
}

func TestCostStatsSurviveSessionEviction(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	postPlan(t, h, `{"baseline": "none"}`) // Lancet plan exercises the session's cost model
	before := svc.Stats().CostModel
	if before.Hits+before.Misses == 0 {
		t.Fatal("first session recorded no cost-model activity")
	}
	// 32 more session keys (the default batch is 16) fill the pool and
	// evict the first session.
	for batch := 17; batch <= 16+sessionCap; batch++ {
		if w := postPlan(t, h, fmt.Sprintf(`{"framework": "raf", "baseline": "none", "batch": %d}`, batch)); w.Code != http.StatusOK {
			t.Fatalf("batch %d: status %d, body %s", batch, w.Code, w.Body)
		}
	}
	after := svc.Stats().CostModel
	if ss := svc.Stats().SessionStore; ss.Evictions != 1 || ss.Misses != sessionCap+1 {
		t.Fatalf("session store %+v, want %d sessions built and 1 evicted", ss, sessionCap+1)
	}
	// Counters must be monotonic across pool churn: the evicted session's
	// tally is retired, not dropped.
	if after.Hits < before.Hits || after.Misses < before.Misses {
		t.Errorf("cost-model counters went backwards after eviction: %+v -> %+v", before, after)
	}
}

func TestCanonicalKeysSeparateWhatMatters(t *testing.T) {
	base := PlanRequest{}
	c1, err := base.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	// Seed changes the plan key but not the session key.
	seed9 := int64(9)
	seeded, err := PlanRequest{Seed: &seed9}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c1.sessionKey() != seeded.sessionKey() {
		t.Error("seed must not split the session pool")
	}
	if c1.planKey("raf") == seeded.planKey("raf") {
		t.Error("seed must split the plan store")
	}
	// Seed 0 is a valid CLI seed and must not collapse into the default.
	seed0 := int64(0)
	zeroSeeded, err := PlanRequest{Seed: &seed0}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if zeroSeeded.seed != 0 {
		t.Errorf("explicit seed 0 resolved to %d", zeroSeeded.seed)
	}
	if c1.planKey("raf") == zeroSeeded.planKey("raf") {
		t.Error("seed 0 must be distinguishable from the default seed 1")
	}
	// Gate changes both.
	gated, err := PlanRequest{Gate: "top2"}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c1.sessionKey() == gated.sessionKey() {
		t.Error("gate must split the session pool")
	}
	// Routing splits the plan store but not the session pool: each routing
	// plans on a workload view of the pooled session.
	for _, rt := range []*RoutingSpec{{Kind: RoutingZipf, Alpha: 1.2}, {Kind: RoutingHot, HotShare: 0.3}} {
		routed, err := PlanRequest{Routing: rt}.canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if c1.sessionKey() != routed.sessionKey() {
			t.Errorf("routing %s must not split the session pool", rt.key())
		}
		for _, fw := range []string{lancet.FrameworkLancet, lancet.FrameworkTutel} {
			if c1.planKey(fw) == routed.planKey(fw) {
				t.Errorf("routing %s must split the %s plan's cache entry", rt.key(), fw)
			}
		}
	}
	// An explicit default is the same canonical request as an implicit one.
	explicit, err := PlanRequest{Model: "gpt2-s", Cluster: "v100", GPUs: 16, Framework: "lancet"}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c1.planKey(c1.framework) != explicit.planKey(explicit.framework) {
		t.Error("spelled-out defaults must share the implicit defaults' cache entry")
	}
	// Options split only the Lancet plan's entry; baselines ignore them.
	tuned, err := PlanRequest{Options: PlanOptions{MaxPartitions: 4}}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c1.planKey(lancet.FrameworkLancet) == tuned.planKey(lancet.FrameworkLancet) {
		t.Error("options must split the Lancet plan's cache entry")
	}
	if c1.planKey(lancet.FrameworkTutel) != tuned.planKey(lancet.FrameworkTutel) {
		t.Error("options must not split a baseline's cache entry (Compute ignores them)")
	}
}

func TestEchoedRequestRoundTrips(t *testing.T) {
	// The documented contract of PlanResponse.Request: defaults resolved
	// and re-submittable. Canonicalizing the echo must land on the same
	// cache entry as the original request.
	for _, body := range []PlanRequest{
		{},
		{Model: "gpt2-l", Gate: "top2", Framework: "tutel"},
		{Model: "vit", Cluster: "A100", GPUs: 8, Baseline: BaselineNone},
	} {
		c, err := body.canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		again, err := c.echo().canonicalize()
		if err != nil {
			t.Fatalf("echoed request rejected: %v", err)
		}
		if c.planKey(c.framework) != again.planKey(again.framework) {
			t.Errorf("echo of %+v does not round-trip to the same plan key", body)
		}
	}
}

func TestComputeDeterministic(t *testing.T) {
	sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Compute(sess, lancet.FrameworkTutel, 3, lancet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(sess, lancet.FrameworkTutel, 3, lancet.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Errorf("Compute not deterministic:\n%+v\n%+v", a, b)
	}
}

// Compute releases the plans it makes and nothing else: after a stream of
// released Lancet plans on the same session, a second Compute of a
// DisablePartition plan (the session's dW-scheduled graph), of the Tutel
// (the session's kept search winner), FasterMoE and DeepSpeed baselines,
// and of Lancet plans with and without a node-loss what-if returns the
// bytes the first one did.
func TestComputeReleasesOnlyItsPlans(t *testing.T) {
	sess, err := lancet.NewSession(lancet.GPT2SMoE(0), lancet.MustCluster("V100", 16))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		fw   string
		opts lancet.Options
		lost []int
	}{
		{lancet.FrameworkLancet, lancet.Options{DisablePartition: true}, nil},
		{lancet.FrameworkTutel, lancet.Options{}, nil},
		{lancet.FrameworkFasterMoE, lancet.Options{}, nil},
		{lancet.FrameworkDeepSpeed, lancet.Options{}, nil},
		{lancet.FrameworkLancet, lancet.Options{}, nil},
		{lancet.FrameworkLancet, lancet.Options{MaxPartitions: 4}, []int{1}},
	}
	compute := func(fw string, opts lancet.Options, lost []int) []byte {
		t.Helper()
		res, err := Compute(sess, fw, 5, opts, lost...)
		if err != nil {
			t.Fatalf("%s %+v: %v", fw, opts, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	first := make([][]byte, len(cases))
	for i, c := range cases {
		first[i] = compute(c.fw, c.opts, c.lost)
	}
	for _, rho := range []int{2, 8, 4, 2} {
		compute(lancet.FrameworkLancet, lancet.Options{MaxPartitions: rho}, nil)
	}
	for i, c := range cases {
		if again := compute(c.fw, c.opts, c.lost); !bytes.Equal(again, first[i]) {
			t.Errorf("%s %+v: second Compute differs:\n%s\n%s", c.fw, c.opts, first[i], again)
		}
	}
}

func TestTopologyRejectsBadSpecs(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []struct {
		name, body, wantInError string
	}{
		{"fractional oversub", `{"topology": {"oversub": 0.5}}`, "Oversubscription"},
		{"negative rack size", `{"topology": {"nodes_per_rack": -2}}`, "NodesPerRack"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postPlan(t, h, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body)
			}
			if msg := decodeError(t, w); !strings.Contains(msg, tc.wantInError) {
				t.Errorf("error %q does not mention %q", msg, tc.wantInError)
			}
		})
	}
}

func TestTopologyKeysCanonicalize(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	// Every flat spelling lands on one cache entry: unset, explicit
	// non-blocking spine, and a single rack covering the whole cluster.
	flat := postPlan(t, h, fastPlanBody)
	if flat.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", flat.Code, flat.Body)
	}
	for _, body := range []string{
		`{"framework": "raf", "baseline": "none", "topology": {"nodes_per_rack": 2}}`,
		`{"framework": "raf", "baseline": "none", "topology": {"nodes_per_rack": 99, "oversub": 8}}`,
	} {
		w := postPlan(t, h, body)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", w.Code, w.Body)
		}
		if got := w.Header().Get("X-Lancet-Cache"); got != "hit" {
			t.Errorf("flat topology spelling %s should hit the flat entry, got %q", body, got)
		}
	}
	// A real hierarchy is a separate entry, and oversubscription must show
	// up as a slower plan.
	over := postPlan(t, h, `{"framework": "raf", "baseline": "none", "topology": {"oversub": 4}}`)
	if over.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", over.Code, over.Body)
	}
	if got := over.Header().Get("X-Lancet-Cache"); got != "miss" {
		t.Errorf("oversubscribed topology should be a fresh computation, got %q", got)
	}
	if n := svc.Computations(); n != 2 {
		t.Errorf("flat + oversubscribed ran %d computations, want 2", n)
	}
	var flatResp, overResp PlanResponse
	if err := json.NewDecoder(flat.Body).Decode(&flatResp); err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(over.Body).Decode(&overResp); err != nil {
		t.Fatal(err)
	}
	if overResp.Result.IterationMs <= flatResp.Result.IterationMs {
		t.Errorf("oversubscribed iteration %.1f ms must exceed flat %.1f ms",
			overResp.Result.IterationMs, flatResp.Result.IterationMs)
	}
	// The echo carries the canonical topology (per-node racks resolved) and
	// is resubmittable onto the same entry.
	if overResp.Request.Topology == nil || overResp.Request.Topology.NodesPerRack != 1 ||
		overResp.Request.Topology.Oversub != 4 {
		t.Fatalf("echoed topology = %+v, want nodes_per_rack 1, oversub 4", overResp.Request.Topology)
	}
	echoed, err := json.Marshal(overResp.Request)
	if err != nil {
		t.Fatal(err)
	}
	again := postPlan(t, h, string(echoed))
	if got := again.Header().Get("X-Lancet-Cache"); got != "hit" {
		t.Errorf("resubmitted topology echo cache state = %q, want hit", got)
	}
}

func TestTopologyBlindAblationSplitsPlanKey(t *testing.T) {
	topo := &TopologySpec{NodesPerRack: 1, Oversub: 4}
	aware, err := PlanRequest{Topology: topo}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	blind, err := PlanRequest{Topology: topo, Options: PlanOptions{AssumeFlatTopology: true}}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if aware.sessionKey() != blind.sessionKey() {
		t.Error("the ablation must share the session (same cluster, same graph)")
	}
	if aware.planKey(lancet.FrameworkLancet) == blind.planKey(lancet.FrameworkLancet) {
		t.Error("assume_flat_topology must split the Lancet plan entry")
	}
}
