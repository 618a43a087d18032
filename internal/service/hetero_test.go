package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestClassesRejectBadSpecs(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	for _, c := range []struct {
		body, wantErr string
		wantCode      ErrorCode
	}{
		{`{"classes": [{"gpu": "A100", "nodes": 1}], "cluster": "V100"}`, "not both", CodeConflictingFields},
		{`{"classes": [{"gpu": "A100", "nodes": 1}], "gpus": 16}`, "not both", CodeConflictingFields},
		{`{"classes": [{"gpu": "H100", "nodes": 1}]}`, "unknown GPU type", CodeBadCluster},
		{`{"classes": [{"gpu": "A100", "nodes": 0}]}`, "nodes > 0", CodeBadCluster},
		{`{"classes": [{"gpu": "A100", "nodes": -2}]}`, "nodes > 0", CodeBadCluster},
		// 65,536 GPUs, the fleet {"gpus": 65536} names.
		{`{"classes": [{"gpu": "V100", "nodes": 8192}]}`, "512-GPU fleet limit", CodeBadCluster},
		// Each class within the bound, the fleet over it.
		{`{"classes": [{"gpu": "A100", "nodes": 40}, {"gpu": "V100", "nodes": 40}]}`, "640 GPUs", CodeBadCluster},
	} {
		w := postPlan(t, h, c.body)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.body, w.Code)
			continue
		}
		if e := decodeEnvelope(t, w); !strings.Contains(e.Err.Message, c.wantErr) || e.Err.Code != c.wantCode {
			t.Errorf("%s: error %s %q, want %s mentioning %q", c.body, e.Err.Code, e.Err.Message, c.wantCode, c.wantErr)
		}
		if n := svc.sessions.Len(); n != 0 {
			t.Errorf("%s: %d sessions built, want none", c.body, n)
		}
	}
}

// Every uniform spelling of the fleet — plain cluster/gpus, a single class,
// split same-type classes — must collapse to the pre-heterogeneity cache
// key, so existing entries stay valid; a mixed fleet gets its own key.
func TestClassesKeysCanonicalize(t *testing.T) {
	plain, err := PlanRequest{Cluster: "V100", GPUs: 16}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.sessionKey(), "hw=") {
		t.Fatalf("uniform key %q should have no hw fragment", plain.sessionKey())
	}
	for _, classes := range [][]ClassSpec{
		{{GPU: "V100", Nodes: 2}},
		{{GPU: "v100", Nodes: 1}, {GPU: "V100", Nodes: 1}},
	} {
		c, err := PlanRequest{Classes: classes}.canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if c.sessionKey() != plain.sessionKey() {
			t.Errorf("uniform class spelling %+v key %q != plain key %q",
				classes, c.sessionKey(), plain.sessionKey())
		}
	}

	mixed, err := PlanRequest{Classes: []ClassSpec{
		{GPU: "A100", Nodes: 1}, {GPU: "V100", Nodes: 1},
	}}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mixed.sessionKey(), "hw=1xA100+1xV100") {
		t.Errorf("mixed key %q should carry the canonical class mix", mixed.sessionKey())
	}
	// Same-type neighbors merge inside a mixed list too.
	split, err := PlanRequest{Classes: []ClassSpec{
		{GPU: "a100", Nodes: 1}, {GPU: "V100", Nodes: 1}, {GPU: "V100", Nodes: 1},
	}}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(split.sessionKey(), "hw=1xA100+2xV100") {
		t.Errorf("split key %q should merge same-type neighbors", split.sessionKey())
	}
	if mixed.sessionKey() == plain.sessionKey() {
		t.Error("mixed fleet must not share the uniform session key")
	}
}

// The hetero-blind ablation must not share a plan entry with the default
// plan on the same mixed fleet.
func TestUniformHardwareAblationSplitsPlanKey(t *testing.T) {
	classes := []ClassSpec{{GPU: "A100", Nodes: 1}, {GPU: "V100", Nodes: 1}}
	aware, err := PlanRequest{Classes: classes}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	blind, err := PlanRequest{Classes: classes,
		Options: PlanOptions{AssumeUniformHardware: true}}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if aware.sessionKey() != blind.sessionKey() {
		t.Error("the ablation shares the session; only the plan differs")
	}
	if aware.planKey(aware.framework) == blind.planKey(blind.framework) {
		t.Error("hetero-blind and aware plans must not share a plan-store entry")
	}
}

// End to end: a mixed-fleet request plans, echoes its canonical classes
// spelling, and the echo resubmits onto the same cache entry.
func TestClassesEchoIsResubmittable(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	body := `{"framework": "raf", "baseline": "none",
		"classes": [{"gpu": "A100", "nodes": 1}, {"gpu": "V100", "nodes": 1}]}`
	w := postPlan(t, h, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, w.Body)
	}
	var resp PlanResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Result == nil || resp.Result.IterationMs <= 0 {
		t.Fatalf("mixed-fleet plan returned no iteration time: %+v", resp.Result)
	}
	echo := resp.Request
	if len(echo.Classes) != 2 || echo.Cluster != "" || echo.GPUs != 0 {
		t.Fatalf("echo should spell the fleet by classes alone, got %+v", echo)
	}
	blob, err := json.Marshal(echo)
	if err != nil {
		t.Fatal(err)
	}
	again := postPlan(t, h, string(blob))
	if again.Code != http.StatusOK {
		t.Fatalf("resubmit status = %d, body %s", again.Code, again.Body)
	}
	if got := again.Header().Get("X-Lancet-Cache"); got != "hit" {
		t.Errorf("resubmitted classes echo cache state = %q, want hit", got)
	}
	if n := svc.Computations(); n != 1 {
		t.Errorf("echo resubmission recomputed: %d computations, want 1", n)
	}
}

// A classes sweep fans the fleet across the grid without tripping the
// cluster/gpus exclusivity check.
func TestSweepWithClasses(t *testing.T) {
	svc := New(Config{})
	body := `{"frameworks": ["raf", "deepspeed"], "classes": [{"gpu": "A100", "nodes": 1}, {"gpu": "V100", "nodes": 1}]}`
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
	if resp.Count != 2 {
		t.Fatalf("sweep count = %d, want 2", resp.Count)
	}
	for _, item := range resp.Results {
		if item.Err != "" {
			t.Errorf("%s: %s", item.Request.Framework, item.Err)
		}
		if len(item.Request.Classes) != 2 {
			t.Errorf("sweep echo lost the classes: %+v", item.Request)
		}
	}
}
