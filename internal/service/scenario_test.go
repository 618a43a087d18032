package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lancet/internal/netsim"
)

// whatIfBody asks for a node-loss scenario on the default 16-V100 fleet:
// losing node 0 drops half the GPUs.
const whatIfBody = `{"framework": "lancet", "baseline": "none", "what_if": {"lost_nodes": [0]}}`

func TestPlanWhatIfHappyPath(t *testing.T) {
	h := New(Config{}).Handler()
	w := postPlan(t, h, whatIfBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp PlanResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	wi := resp.Result.WhatIf
	if wi == nil {
		t.Fatal("result carries no what_if block")
	}
	if len(wi.LostNodes) != 1 || wi.LostNodes[0] != 0 {
		t.Errorf("LostNodes = %v, want [0]", wi.LostNodes)
	}
	if wi.LostGPUs != 8 || wi.SurvivorGPUs != 8 {
		t.Errorf("lost/survivor GPUs = %d/%d, want 8/8", wi.LostGPUs, wi.SurvivorGPUs)
	}
	if wi.IntactMs <= 0 || wi.DegradedMs <= 0 || wi.ReplannedMs <= 0 {
		t.Errorf("non-positive latency in %+v", wi)
	}
	// Survivors carry at least the intact fleet's token budget, so losing
	// nodes never predicts faster than the intact fleet.
	if wi.DegradedSlowdown < 1 {
		t.Errorf("DegradedSlowdown = %.3f < 1: degraded replay faster than intact", wi.DegradedSlowdown)
	}
	if wi.ReplanDPEvaluations <= 0 {
		t.Errorf("ReplanDPEvaluations = %d: the re-plan ran no DP", wi.ReplanDPEvaluations)
	}
	if resp.Request.WhatIf == nil || len(resp.Request.WhatIf.LostNodes) != 1 {
		t.Errorf("echo lost the what_if spec: %+v", resp.Request.WhatIf)
	}
}

func TestPlanWhatIfCacheHitIsByteIdentical(t *testing.T) {
	h := New(Config{}).Handler()
	first := postPlan(t, h, whatIfBody)
	second := postPlan(t, h, whatIfBody)
	if first.Code != http.StatusOK || second.Code != http.StatusOK {
		t.Fatalf("statuses %d/%d", first.Code, second.Code)
	}
	if got := second.Header().Get("X-Lancet-Cache"); got != "hit" {
		t.Errorf("second what-if request cache state = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached what-if response differs from the fresh one")
	}
	// The same plan without the scenario is a distinct cache entry: a
	// what-if answer must never be served to a plain request.
	plain := postPlan(t, h, `{"framework": "lancet", "baseline": "none"}`)
	if plain.Code != http.StatusOK {
		t.Fatalf("plain status = %d, body %s", plain.Code, plain.Body)
	}
	if got := plain.Header().Get("X-Lancet-Cache"); got != "miss" {
		t.Errorf("plain request after what-if cache state = %q, want miss", got)
	}
	var resp PlanResponse
	if err := json.NewDecoder(plain.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result.WhatIf != nil {
		t.Error("plain request served a what_if block")
	}
}

func TestPlanWhatIfNormalizesLostNodes(t *testing.T) {
	h := New(Config{}).Handler()
	first := postPlan(t, h, whatIfBody)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", first.Code, first.Body)
	}
	// Duplicates and order collapse to the same canonical scenario — and
	// therefore the same cache entry.
	messy := postPlan(t, h, `{"framework": "lancet", "baseline": "none", "what_if": {"lost_nodes": [0, 0]}}`)
	if messy.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", messy.Code, messy.Body)
	}
	if got := messy.Header().Get("X-Lancet-Cache"); got != "hit" {
		t.Errorf("normalized duplicate scenario cache state = %q, want hit", got)
	}
	var resp PlanResponse
	if err := json.NewDecoder(messy.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if got := resp.Request.WhatIf.LostNodes; len(got) != 1 || got[0] != 0 {
		t.Errorf("echoed lost_nodes = %v, want [0]", got)
	}
}

func TestPlanWhatIfRejections(t *testing.T) {
	h := New(Config{}).Handler()
	cases := []struct {
		name, body, wantInError string
		wantCode                ErrorCode
	}{
		{"baseline framework", `{"framework": "raf", "baseline": "none", "what_if": {"lost_nodes": [0]}}`,
			"requires framework", CodeConflictingFields},
		{"empty lost_nodes", `{"framework": "lancet", "baseline": "none", "what_if": {"lost_nodes": []}}`,
			"at least one node", CodeBadRequest},
		{"out of range", `{"framework": "lancet", "baseline": "none", "what_if": {"lost_nodes": [5]}}`,
			"out of range", CodeBadRequest},
		{"all nodes lost", `{"framework": "lancet", "baseline": "none", "what_if": {"lost_nodes": [0, 1]}}`,
			"all", CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postPlan(t, h, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body)
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

// TestRoutingRejectsOverflowAndWhatIf pins the validation bugfix sweep on
// /v1/routing: a gate-count matrix whose total would wrap int64 is rejected
// with CodeBadRouting before any drift session exists, and a drift plan
// carrying a what_if scenario is a client error — the streamed histogram is
// shaped for the intact fleet.
func TestRoutingRejectsOverflowAndWhatIf(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	overflow := netsim.UniformProfile(16).Counts()
	overflow[0][0] = math.MaxInt64
	overflow[0][1] = math.MaxInt64
	cases := []struct {
		name, body, wantInError string
		wantCode                ErrorCode
	}{
		{"overflowing counts", routingBody(t, overflow), "overflows", CodeBadRouting},
		{"plan with what_if",
			`{"plan": {"framework": "lancet", "baseline": "none", "what_if": {"lost_nodes": [0]}}, "counts": [[1]]}`,
			"what_if", CodeConflictingFields},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postRouting(t, h, tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body)
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
	if n := svc.Stats().Drift.Sessions; n != 0 {
		t.Errorf("rejected updates created %d drift sessions, want 0", n)
	}
}

// TestDeprecationHeadersAcrossEndpoints pins the end of the deprecation
// window (API revision 3): the retired skew shorthand and the sweep's
// warm_start flag are unknown fields with a 400 bad_request naming them on
// every endpoint that used to accept them, and no response — rejection or
// success — carries the old sunset headers.
func TestDeprecationHeadersAcrossEndpoints(t *testing.T) {
	h := New(Config{}).Handler()
	noSunsetHeaders := func(t *testing.T, w *httptest.ResponseRecorder) {
		t.Helper()
		for _, k := range []string{"Deprecation", "X-Lancet-Deprecated-Field"} {
			if got := w.Header().Get(k); got != "" {
				t.Errorf("%s = %q, want unset", k, got)
			}
		}
	}
	retired := []struct{ name, path, body, field string }{
		{"plan", "/v1/plan", `{"framework": "raf", "baseline": "none", "skew": 1.5}`, "skew"},
		{"sweep", "/v1/sweep", `{"frameworks": ["raf"], "skew": 1.5}`, "skew"},
		{"warm-started sweep", "/v1/sweep", `{"frameworks": ["lancet"], "warm_start": true}`, "warm_start"},
		{"routing", "/v1/routing", `{"plan": {"framework": "raf", "baseline": "none", "skew": 1.5}, "counts": [[1]]}`, "skew"},
	}
	for _, tc := range retired {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (body %s)", w.Code, w.Body)
			}
			noSunsetHeaders(t, w)
			e := decodeEnvelope(t, w)
			if want := fmt.Sprintf("unknown field %q", tc.field); e.Err.Code != CodeBadRequest || !strings.Contains(e.Err.Message, want) {
				t.Errorf("error = %+v, want %s naming %s", e.Err, CodeBadRequest, want)
			}
		})
	}
	// The current spellings succeed, header-free, on all three endpoints.
	modern := []struct{ name, path, body string }{
		{"plan", "/v1/plan", `{"framework": "raf", "baseline": "none", "routing": {"kind": "zipf", "alpha": 1.5}}`},
		{"sweep", "/v1/sweep", `{"frameworks": ["raf"], "routing": {"kind": "zipf", "alpha": 1.5}}`},
		{"routing", "/v1/routing", routingBody(t, netsim.UniformProfile(16).Counts())},
	}
	for _, tc := range modern {
		t.Run("modern "+tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != http.StatusOK {
				t.Fatalf("status = %d, body %s", w.Code, w.Body)
			}
			noSunsetHeaders(t, w)
		})
	}
}
