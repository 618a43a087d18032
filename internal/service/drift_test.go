package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lancet/internal/netsim"
)

// driftPlan is the cheapest plan a drift session can maintain: a baseline
// framework (no DP) with the comparison disabled, on the default 16 V100s.
var driftPlan = PlanRequest{Framework: "raf", Baseline: BaselineNone}

func routingBody(t *testing.T, counts [][]int64) string {
	t.Helper()
	b, err := json.Marshal(RoutingUpdate{Plan: driftPlan, Counts: counts})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func postRouting(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/routing", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeRouting(t *testing.T, body io.Reader) RoutingResponse {
	t.Helper()
	var resp RoutingResponse
	if err := json.NewDecoder(body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func planAge(t *testing.T, w *httptest.ResponseRecorder) int64 {
	t.Helper()
	age, err := strconv.ParseInt(w.Header().Get("X-Lancet-Plan-Age"), 10, 64)
	if err != nil {
		t.Fatalf("bad X-Lancet-Plan-Age %q: %v", w.Header().Get("X-Lancet-Plan-Age"), err)
	}
	return age
}

func TestRoutingFirstUpdateServesFreshPlan(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	w := postRouting(t, h, routingBody(t, netsim.UniformProfile(16).Counts()))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if got := planAge(t, w); got != 0 {
		t.Errorf("first plan age = %d, want 0", got)
	}
	if got := w.Header().Get("X-Lancet-Plan-Stale"); got != "false" {
		t.Errorf("X-Lancet-Plan-Stale = %q, want false", got)
	}
	resp := decodeRouting(t, w.Body)
	if resp.Drift.Updates != 1 || resp.Drift.PlanAge != 0 || resp.Drift.Stale || resp.Drift.Detected {
		t.Errorf("drift info = %+v, want 1 update, age 0, fresh", resp.Drift)
	}
	var res Result
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		t.Fatalf("result not a Result: %v", err)
	}
	if res.Framework != "raf" || res.IterationMs <= 0 {
		t.Errorf("result = %+v, want a simulated raf plan", res)
	}
	st := svc.Stats().Drift
	if st.Sessions != 1 || st.Updates != 1 || st.StaleServed != 0 || st.Replans != 0 {
		t.Errorf("drift stats = %+v, want 1 session, 1 update, nothing stale", st)
	}
}

func TestRoutingRejectsBadUpdates(t *testing.T) {
	h := New(Config{}).Handler()
	ragged := netsim.UniformProfile(16).Counts()
	ragged[3] = ragged[3][:10]
	negative := netsim.UniformProfile(16).Counts()
	negative[0][0] = -5
	small := `{"plan": {"framework": "raf", "baseline": "none"}, "counts": [[1]]}`
	// /v1/plan accepts a 512-GPU fleet, but its updates exceed the body
	// bound: 1,106,530 bytes at Zipf 1.0.
	fleet512 := PlanRequest{Cluster: "V100", GPUs: 512, Framework: "raf", Baseline: BaselineNone}
	overCap := mustJSON(t, RoutingUpdate{Plan: fleet512, Counts: netsim.ZipfProfile(512, 1.0).Counts()})
	if len(overCap) <= maxBodyBytes {
		t.Fatalf("the 512-GPU update is %d bytes, within the %d-byte bound", len(overCap), maxBodyBytes)
	}
	cases := []struct {
		name, body, wantInError string
		wantCode                ErrorCode
		wantStatus              int
	}{
		{"bad json", `{"plan": `, "bad request body", CodeBadRequest, 400},
		{"plan with routing", `{"plan": {"routing": {"kind": "zipf", "alpha": 1}}, "counts": [[1]]}`,
			"streamed counts", CodeConflictingFields, 400},
		{"plan with skew", `{"plan": {"skew": 1.2}, "counts": [[1]]}`,
			`unknown field "skew"`, CodeBadRequest, 400},
		{"trailing data", routingBody(t, netsim.UniformProfile(16).Counts()) + ` trailing`,
			"bad request body", CodeBadRequest, 400},
		{"unknown model", `{"plan": {"model": "gpt3"}, "counts": [[1]]}`,
			"unknown model", CodeUnknownModel, 400},
		{"wrong dimensions", small, "16 x 16", CodeBadRouting, 400},
		{"ragged matrix", routingBody(t, ragged), "entries", CodeBadRouting, 400},
		{"negative count", routingBody(t, negative), "negative", CodeBadRouting, 400},
		{"body too large", overCap, "bad request body: http: request body too large", CodeBadRequest, 400},
		{"valid update padded past the bound", small + strings.Repeat(" ", maxBodyBytes),
			"bad request body: data after the JSON value", CodeBadRequest, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postRouting(t, h, tc.body)
			if w.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d (body %s)", w.Code, tc.wantStatus, w.Body)
			}
			e := decodeEnvelope(t, w)
			if !strings.Contains(e.Err.Message, tc.wantInError) {
				t.Errorf("error %q does not mention %q", e.Err.Message, tc.wantInError)
			}
			if e.Err.Code != tc.wantCode {
				t.Errorf("error code = %q, want %q", e.Err.Code, tc.wantCode)
			}
		})
	}
}

// TestRoutingPlanAgeMonotonicWithoutReplan pins the stale-serving contract
// with re-planning disabled: the plan age grows by exactly one per update,
// the served result bytes never change, and drifted traffic flips the stale
// flag without ever swapping the plan.
func TestRoutingPlanAgeMonotonicWithoutReplan(t *testing.T) {
	svc := New(Config{DriftThreshold: -1})
	h := svc.Handler()
	uni := routingBody(t, netsim.UniformProfile(16).Counts())
	hot := routingBody(t, netsim.HotExpertProfile(16, 0.7).Counts())

	first := postRouting(t, h, uni)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", first.Code, first.Body)
	}
	firstResp := decodeRouting(t, first.Body)

	// Stable traffic: age climbs, nothing is stale (a uniform matrix is
	// scale-invariant under decay, so the fingerprint never moves).
	for i := int64(1); i <= 4; i++ {
		w := postRouting(t, h, uni)
		if w.Code != http.StatusOK {
			t.Fatalf("update %d: status = %d, body %s", i, w.Code, w.Body)
		}
		if got := planAge(t, w); got != i {
			t.Errorf("update %d: plan age = %d, want %d", i, got, i)
		}
		resp := decodeRouting(t, w.Body)
		if resp.Drift.Stale {
			t.Errorf("update %d: stable traffic reported stale", i)
		}
		if !bytes.Equal(resp.Result, firstResp.Result) {
			t.Errorf("update %d: served plan bytes changed without a re-plan", i)
		}
	}

	// Drifted traffic: stale flips true, the age keeps climbing, the bytes
	// still never change — the threshold is negative, so no re-plan may run.
	for i := int64(5); i <= 8; i++ {
		w := postRouting(t, h, hot)
		if w.Code != http.StatusOK {
			t.Fatalf("update %d: status = %d, body %s", i, w.Code, w.Body)
		}
		if got := planAge(t, w); got != i {
			t.Errorf("update %d: plan age = %d, want %d", i, got, i)
		}
		if got := w.Header().Get("X-Lancet-Plan-Stale"); got != "true" {
			t.Errorf("update %d: X-Lancet-Plan-Stale = %q, want true", i, got)
		}
		resp := decodeRouting(t, w.Body)
		if !resp.Drift.Stale || resp.Drift.Detected {
			t.Errorf("update %d: drift info = %+v, want stale but undetected", i, resp.Drift)
		}
		if !bytes.Equal(resp.Result, firstResp.Result) {
			t.Errorf("update %d: served plan bytes changed with re-planning disabled", i)
		}
	}

	st := svc.Stats().Drift
	if st.Replans != 0 || st.DriftDetected != 0 {
		t.Errorf("re-planning disabled but detected %d, replanned %d", st.DriftDetected, st.Replans)
	}
	if st.StaleServed != 4 {
		t.Errorf("stale served = %d, want 4", st.StaleServed)
	}
	if st.Updates != 9 {
		t.Errorf("updates = %d, want 9", st.Updates)
	}
}

// TestRoutingDriftTriggersBackgroundReplan drives the full loop: stable
// traffic, then a sustained shift that must be detected and answered by a
// background re-plan — observable as the plan age dropping when the new
// plan swaps in.
func TestRoutingDriftTriggersBackgroundReplan(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	postRouting(t, h, routingBody(t, netsim.UniformProfile(16).Counts()))

	hot := routingBody(t, netsim.HotExpertProfile(16, 0.7).Counts())
	swapped := false
	prevAge := int64(0)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		w := postRouting(t, h, hot)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", w.Code, w.Body)
		}
		if age := planAge(t, w); age < prevAge {
			swapped = true
			break
		} else {
			prevAge = age
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !swapped {
		t.Fatal("plan age never dropped: no re-plan swapped in")
	}
	st := svc.Stats().Drift
	if st.DriftDetected < 1 || st.Replans < 1 {
		t.Errorf("detected %d, replans %d, want >= 1 each", st.DriftDetected, st.Replans)
	}
	if st.ReplanErrors != 0 {
		t.Errorf("replan errors = %d, want 0", st.ReplanErrors)
	}
	if st.StaleServed < 1 {
		t.Errorf("stale served = %d, want >= 1", st.StaleServed)
	}
	svc.Close()
}

// TestDriftReplansSharePooledSession pins that drift re-plans plan on the
// session pool (DESIGN.md §9, §16): a /v1/plan request and a /v1/routing
// job on one model × fleet share one pooled session, and a landed re-plan
// is a pool hit that prices on that session's cost model, so /v1/stats
// cost_model counts it. Its last leg runs a re-plan while /v1/plan
// requests plan on the same session; run it under -race.
func TestDriftReplansSharePooledSession(t *testing.T) {
	svc := New(Config{DecayHalfLife: 0.01})
	defer svc.Close()
	h := svc.Handler()
	plan := PlanRequest{Baseline: BaselineNone} // lancet: re-plans run the DP
	update := func(p *netsim.RoutingProfile) DriftInfo {
		t.Helper()
		w := postRouting(t, h, mustJSON(t, RoutingUpdate{Plan: plan, Counts: p.Counts()}))
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", w.Code, w.Body)
		}
		return decodeRouting(t, w.Body).Drift
	}
	if w := postPlan(t, h, `{"baseline": "none"}`); w.Code != http.StatusOK {
		t.Fatalf("plan status = %d, body %s", w.Code, w.Body)
	}
	update(netsim.UniformProfile(16))
	before := svc.Stats()
	if ss := before.SessionStore; ss.Size != 1 || ss.Misses != 1 {
		t.Fatalf("session store %+v after a plan and a drift job's first plan, want one pooled session built once", ss)
	}
	if info := update(netsim.ZipfProfile(16, 1.2)); !info.Detected {
		t.Fatalf("Zipf 1.2 update after uniform traffic: %+v, want a detected drift", info)
	}
	d := driftSessionOf(t, svc, plan)
	awaitReplans(t, svc, d, 1)
	after := svc.Stats()
	if ss := after.SessionStore; ss.Size != 1 || ss.Misses != 1 || ss.Hits <= before.SessionStore.Hits {
		t.Errorf("session store %+v after the re-plan (before %+v), want the re-plan to be a pool hit", ss, before.SessionStore)
	}
	if a, b := after.CostModel, before.CostModel; a.Hits <= b.Hits || a.Misses <= b.Misses {
		t.Errorf("cost_model %+v after the re-plan, %+v before: the re-plan's pricing is not counted", a, b)
	}

	if info := update(netsim.HotExpertProfile(16, 0.5)); !info.Detected {
		t.Fatalf("hot-expert update after Zipf traffic: %+v, want a detected drift", info)
	}
	var wg sync.WaitGroup
	for _, body := range []string{
		`{"baseline": "none", "seed": 2}`,
		`{"baseline": "none", "routing": {"kind": "zipf", "alpha": 1.2}}`,
		`{"baseline": "none", "routing": {"kind": "hot", "hot_share": 0.3}}`,
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w := postPlan(t, h, body); w.Code != http.StatusOK {
				t.Errorf("%s during a re-plan: status %d, body %s", body, w.Code, w.Body)
			}
		}()
	}
	wg.Wait()
	awaitReplans(t, svc, d, 2)
	if st := svc.Stats(); st.SessionStore.Size != 1 || st.SessionStore.Misses != 1 || st.Drift.ReplanErrors != 0 {
		t.Errorf("session store %+v, %d re-plan errors after plans ran beside a re-plan; want one pooled session and no errors",
			st.SessionStore, st.Drift.ReplanErrors)
	}
}

// TestRoutingStaleWhileRevalidate is the SWR property test (run with
// -race): while a background re-plan is held open, a concurrent burst of
// updates is served exactly the old plan's bytes — never torn, never
// blocking — and the counters stay consistent.
func TestRoutingStaleWhileRevalidate(t *testing.T) {
	svc := New(Config{})
	gate := make(chan struct{})
	svc.replanGate = func() { <-gate }
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	defer svc.Close()

	post := func(body string) (*http.Response, error) {
		return http.Post(srv.URL+"/v1/routing", "application/json", strings.NewReader(body))
	}
	uni := routingBody(t, netsim.UniformProfile(16).Counts())
	hot := routingBody(t, netsim.HotExpertProfile(16, 0.7).Counts())

	resp, err := post(uni)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first update status %d", resp.StatusCode)
	}
	old := decodeRouting(t, resp.Body)
	resp.Body.Close()

	// This update detects the drift and parks the re-plan on the gate.
	resp, err = post(hot)
	if err != nil {
		t.Fatal(err)
	}
	trigger := decodeRouting(t, resp.Body)
	resp.Body.Close()
	if !trigger.Drift.Detected {
		t.Fatal("hot update did not detect drift")
	}
	if !bytes.Equal(trigger.Result, old.Result) {
		t.Fatal("triggering update was not served the old plan bytes")
	}

	// Burst while the re-plan is held open: every response must carry the
	// old plan verbatim and be marked stale.
	const burst = 8
	results := make([][]byte, burst)
	var wg sync.WaitGroup
	for i := range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := post(hot)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("burst status %d", resp.StatusCode)
				return
			}
			if got := resp.Header.Get("X-Lancet-Plan-Stale"); got != "true" {
				t.Errorf("burst X-Lancet-Plan-Stale = %q, want true", got)
			}
			var rr RoutingResponse
			if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
				t.Error(err)
				return
			}
			results[i] = rr.Result
		}()
	}
	wg.Wait()
	for i, r := range results {
		if !bytes.Equal(r, old.Result) {
			t.Errorf("burst caller %d saw different plan bytes than the published snapshot", i)
		}
	}
	if n := svc.Stats().Drift.Replans; n != 0 {
		t.Fatalf("re-plan completed while held open: replans = %d", n)
	}

	// Release the re-plan and wait for the swap.
	close(gate)
	deadline := time.Now().Add(30 * time.Second)
	for svc.Stats().Drift.Replans == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := svc.Stats().Drift
	if st.Replans != 1 {
		t.Fatalf("replans = %d, want exactly 1 (burst detections must not queue more)", st.Replans)
	}
	if st.ReplanErrors != 0 {
		t.Errorf("replan errors = %d", st.ReplanErrors)
	}
	// The triggering update and the whole burst were served stale.
	if st.StaleServed < burst+1 {
		t.Errorf("stale served = %d, want >= %d", st.StaleServed, burst+1)
	}

	// The swapped plan was built at the trigger's update count; the next
	// update's age is measured from there, not from the first plan.
	resp, err = post(hot)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	after := decodeRouting(t, resp.Body)
	wantUpdates := int64(burst + 3)
	if after.Drift.Updates != wantUpdates || after.Drift.PlanAge != wantUpdates-trigger.Drift.Updates {
		t.Errorf("after swap: %+v, want %d updates and age %d",
			after.Drift, wantUpdates, wantUpdates-trigger.Drift.Updates)
	}
}

// TestRoutingConcurrentFirstUpdates pins the cold-start contract: with no
// plan to serve stale, exactly one update computes it and the rest either
// share the published snapshot or get a retryable plan_pending 503.
func TestRoutingConcurrentFirstUpdates(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	uni := routingBody(t, netsim.UniformProfile(16).Counts())
	const callers = 6
	codes := make([]int, callers)
	var pending int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/routing", "application/json", strings.NewReader(uni))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusServiceUnavailable {
				var e errorResponse
				if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
					t.Error(err)
					return
				}
				if e.Err.Code != CodePlanPending {
					t.Errorf("503 code = %q, want %q", e.Err.Code, CodePlanPending)
				}
				mu.Lock()
				pending++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	served := 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable:
		default:
			t.Errorf("caller %d got status %d, want 200 or 503", i, code)
		}
	}
	if served < 1 {
		t.Error("no caller was served a plan")
	}
	if served+pending != callers {
		t.Errorf("%d served + %d pending != %d callers", served, pending, callers)
	}
	// A uniform matrix is decay-scale-invariant, so every update snapshots
	// to one fingerprint and the store computes exactly once.
	if n := svc.Computations(); n != 1 {
		t.Errorf("computations = %d, want 1", n)
	}
}

// TestRoutingWritesThroughDiskStore pins the durability contract: a drift
// re-plan lands in the disk tier, so a restarted service serves the same
// traffic without recomputing.
func TestRoutingWritesThroughDiskStore(t *testing.T) {
	dir := t.TempDir()
	svc1, err := Open(Config{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	uni := routingBody(t, netsim.UniformProfile(16).Counts())
	w := postRouting(t, svc1.Handler(), uni)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	if n := svc1.Computations(); n != 1 {
		t.Fatalf("first service computations = %d, want 1", n)
	}
	first := decodeRouting(t, w.Body)
	svc1.Close()

	svc2, err := Open(Config{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	w = postRouting(t, svc2.Handler(), uni)
	if w.Code != http.StatusOK {
		t.Fatalf("restarted status = %d, body %s", w.Code, w.Body)
	}
	if n := svc2.Computations(); n != 0 {
		t.Errorf("restarted service recomputed (%d computations); want disk-tier hit", n)
	}
	second := decodeRouting(t, w.Body)
	if !bytes.Equal(first.Result, second.Result) {
		t.Error("restored plan bytes differ from the originally computed ones")
	}
}

func TestVersionEndpoint(t *testing.T) {
	svc := New(Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/version", nil)
	w := httptest.NewRecorder()
	svc.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var v VersionResponse
	if err := json.NewDecoder(w.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.APIRevision != APIRevision {
		t.Errorf("api_revision = %d, want %d", v.APIRevision, APIRevision)
	}
	if v.ArtifactCodecVersion != artifactVersion {
		t.Errorf("artifact_codec_version = %d, want %d", v.ArtifactCodecVersion, artifactVersion)
	}
	if v.ModuleVersion == "" {
		t.Error("module_version empty")
	}
	// The stats scrape carries the same revision, so one request suffices
	// for a compatibility check.
	if got := svc.Stats().APIRevision; got != APIRevision {
		t.Errorf("stats api_revision = %d, want %d", got, APIRevision)
	}
}

// TestDriftSessionKeySeparation pins that two different plan configurations
// maintain independent drift sessions.
func TestDriftSessionKeySeparation(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	uni := netsim.UniformProfile(16).Counts()
	for _, fw := range []string{"raf", "deepspeed"} {
		b, err := json.Marshal(RoutingUpdate{
			Plan:   PlanRequest{Framework: fw, Baseline: BaselineNone},
			Counts: uni,
		})
		if err != nil {
			t.Fatal(err)
		}
		w := postRouting(t, h, string(b))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", fw, w.Code, w.Body)
		}
		resp := decodeRouting(t, w.Body)
		if resp.Drift.Updates != 1 {
			t.Errorf("%s: updates = %d, want 1 (sessions must not share state)", fw, resp.Drift.Updates)
		}
		var res Result
		if err := json.Unmarshal(resp.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Framework != fw {
			t.Errorf("served framework = %q, want %q", res.Framework, fw)
		}
	}
	if n := svc.Stats().Drift.Sessions; n != 2 {
		t.Errorf("drift sessions = %d, want 2", n)
	}
}

// TestConfigZeroSelectsDriftDefaults pins what zero and negative drift
// settings mean: the zero Config selects a 0.1 threshold and an 8-update
// half-life, and a negative half-life keeps every update forever, so a
// drift session's profile after two updates is their plain sum's.
func TestConfigZeroSelectsDriftDefaults(t *testing.T) {
	if cfg := New(Config{}).cfg; cfg.DriftThreshold != 0.1 || cfg.DecayHalfLife != 8 {
		t.Errorf("zero Config: threshold %g, half-life %g; want 0.1 and 8", cfg.DriftThreshold, cfg.DecayHalfLife)
	}
	c, err := driftPlan.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	a, b := netsim.UniformProfile(16).Counts(), netsim.ZipfProfile(16, 1.2).Counts()
	sum := make([][]int64, len(a))
	for i := range a {
		sum[i] = make([]int64, len(a[i]))
		for j := range a[i] {
			sum[i][j] = a[i][j] + b[i][j]
		}
	}
	fingerprint := func(halfLife float64, updates ...[][]int64) uint64 {
		d, err := New(Config{DecayHalfLife: halfLife}).driftSessionFor(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range updates {
			if err := d.acc.Ingest(u); err != nil {
				t.Fatal(err)
			}
		}
		p, err := d.acc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return p.Fingerprint()
	}
	undecayed := fingerprint(-1, sum)
	if fingerprint(-1, a, b) != undecayed {
		t.Error("a negative half-life decayed the first update")
	}
	if fingerprint(0, a, b) == undecayed {
		t.Error("the zero half-life kept every update forever; want the default decay")
	}
}

// BenchmarkServiceReplan measures a background drift re-plan: drift-replan's
// job shape (GPT2-S on 32 V100s) re-planned through the plan store on a
// view of its warm pooled session, hinted by the previous plan, to a
// streamed Zipf profile no earlier iteration saw. Every iteration must
// compute. perf_floor.txt's floor catches a re-plan that rebuilds its
// session or stops warm-starting the DP.
func BenchmarkServiceReplan(b *testing.B) {
	svc := New(Config{})
	defer svc.Close()
	c, err := PlanRequest{GPUs: 32, Baseline: BaselineNone}.canonicalize()
	if err != nil {
		b.Fatal(err)
	}
	d, err := svc.driftSessionFor(c)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the pooled session with a cold /v1/plan-style plan and the drift
	// session's first plan, as in a long-lived server.
	if _, _, err := svc.resultFor(c, c.framework, nil); err != nil {
		b.Fatal(err)
	}
	snap, err := svc.replanOnce(d, netsim.UniformProfile(32), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	profiles := make([]*netsim.RoutingProfile, b.N)
	for i := range profiles {
		profiles[i] = netsim.ZipfProfile(32, 0.6+1e-3*float64(i))
	}
	warm := svc.Computations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap, err = svc.replanOnce(d, profiles[i], int64(i+1), snap.res.Pipelines); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := svc.Computations() - warm; n != int64(b.N) {
		b.Fatalf("%d computations over %d re-plans, want one each", n, b.N)
	}
}
