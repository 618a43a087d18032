package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lancet/internal/netsim"
)

// FuzzPlanRequest drives arbitrary JSON bodies through the request
// decode/canonicalize path and pins four properties: canonicalization
// never panics, the canonical cache keys are stable under the echo
// round-trip (echo a canonical request, re-canonicalize it, land on the
// same session and plan keys) — the invariant that makes every echoed
// response resubmittable onto its own cache entry — the keys equal their
// fmt spellings (planKeyRef), so no stored artifact is orphaned, and the
// appended echo and every float the request carries equal what
// encoding/json writes for them (echoRef).
func FuzzPlanRequest(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"framework": "raf", "baseline": "none"}`))
	f.Add([]byte(`{"model": "gpt2-l", "cluster": "A100", "gpus": 32, "gate": "top2", "seed": 0}`))
	f.Add([]byte(`{"routing": {"kind": "zipf", "alpha": 1.5}, "options": {"max_partitions": 4, "prioritize_all_to_all": true}}`))
	f.Add([]byte(`{"routing": {"kind": "hot", "hot_share": 0.5}, "topology": {"oversub": 4}}`))
	f.Add([]byte(`{"classes": [{"gpu": "A100", "nodes": 1}, {"gpu": "V100", "nodes": 3}], "zero3": true}`))
	f.Add([]byte(`{"classes": [{"gpu": "v100", "nodes": 2}], "batch": 7, "shared_expert": true}`))
	f.Add([]byte(`{"options": {"assume_uniform_routing": true, "assume_flat_topology": true, "assume_uniform_hardware": true, "assume_sole_tenancy": true}}`))
	f.Add([]byte(`{"gpus": 32, "what_if": {"lost_nodes": [3, 1, 3]}}`))
	f.Add([]byte(`{"options": {"group_us": 1e21, "max_range_groups": 3}}`))
	f.Add([]byte(`{"options": {"group_us": 1e-7, "disable_partition": true, "dw_first_fit": true}}`))
	f.Add([]byte(`{"topology": {"oversub": 2.5, "spine_share": 0.5}, "gpus": 32}`))
	f.Add([]byte(`{"classes": [{"gpu": "A100", "nodes": 2}, {"gpu": "V100", "nodes": 1}, {"gpu": "A100", "nodes": 1}], "routing": {"kind": "zipf", "alpha": 0.35}}`))
	f.Add([]byte(`{"classes": [{"gpu": "A100", "nodes": 2}, {"gpu": "V100", "nodes": 2}], "what_if": {"lost_nodes": [0, 3]}, "options": {"disable_dw_schedule": true}}`))
	// encoding/json switches from 'f' to 'e' below 1e-6 and from 1e21 on.
	f.Add([]byte(`{"options": {"group_us": 1e-6}, "routing": {"kind": "hot", "hot_share": 9.99e-7}}`))
	f.Add([]byte(`{"options": {"group_us": 9.99e20}, "routing": {"kind": "zipf", "alpha": 1e21}}`))
	f.Add([]byte(`{"gpus": 32, "topology": {"nodes_per_rack": 2, "oversub": 1e21, "spine_share": 1e-6}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req PlanRequest
		if err := json.Unmarshal(data, &req); err != nil {
			t.Skip()
		}
		c, err := req.canonicalize()
		if err != nil {
			// Rejections are fine; panics are not (the harness catches
			// them for us).
			return
		}
		checkKeysMatchRef(t, c)
		checkEchoMatchesRef(t, c)
		for _, x := range requestFloats(req) {
			checkJSONFloat(t, x)
		}
		echo := c.echo()
		blob, err := json.Marshal(echo)
		if err != nil {
			t.Fatalf("echo of %s does not marshal: %v", data, err)
		}
		var again PlanRequest
		if err := json.Unmarshal(blob, &again); err != nil {
			t.Fatalf("echo of %s does not round-trip: %v", data, err)
		}
		c2, err := again.canonicalize()
		if err != nil {
			t.Fatalf("echoed request %s not resubmittable: %v", blob, err)
		}
		if c.sessionKey() != c2.sessionKey() {
			t.Fatalf("session key unstable under echo round-trip:\n  %q\n  %q", c.sessionKey(), c2.sessionKey())
		}
		if c.planKey(c.framework) != c2.planKey(c2.framework) {
			t.Fatalf("plan key unstable under echo round-trip:\n  %q\n  %q",
				c.planKey(c.framework), c2.planKey(c2.framework))
		}
	})
}

// FuzzRoutingUpdate drives arbitrary gate-count matrices through the
// /v1/routing handler and pins the validation bugfix's invariants: the
// handler never panics, only 200/400/503 come back, anything accepted would
// also pass the matrix validator (ragged rows, negative cells, and
// overflowing totals are all turned away before a drift session exists),
// and a rejected update never creates a drift session.
func FuzzRoutingUpdate(f *testing.F) {
	f.Add(uint8(16), []byte{1, 2, 3, 4}, false)
	f.Add(uint8(16), []byte{255, 255, 255}, false)
	f.Add(uint8(16), []byte{9}, true)
	f.Add(uint8(3), []byte{1}, false)
	f.Add(uint8(16), []byte{}, false)
	f.Fuzz(func(t *testing.T, dims uint8, data []byte, negate bool) {
		d := int(dims%24) + 1
		counts := make([][]int64, d)
		for i := range counts {
			counts[i] = make([]int64, d)
			for j := range counts[i] {
				var v int64
				if k := i*d + j; k < len(data) {
					v = int64(data[k])
					if v == 255 {
						// Exercise the overflow guard with huge counts.
						v = math.MaxInt64 / int64(d)
					}
				}
				if negate && i == 0 && j == 0 {
					v = -v
				}
				counts[i][j] = v
			}
		}
		body, err := json.Marshal(RoutingUpdate{
			Plan:   PlanRequest{Framework: "raf", Baseline: BaselineNone},
			Counts: counts,
		})
		if err != nil {
			t.Fatal(err)
		}
		svc := New(Config{Parallel: 1})
		defer svc.Close()
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/v1/routing", strings.NewReader(string(body))))
		switch rec.Code {
		case http.StatusOK, http.StatusServiceUnavailable:
			if err := netsim.ValidateCounts(counts, 16); err != nil {
				t.Fatalf("handler accepted (status %d) counts the validator rejects: %v", rec.Code, err)
			}
		case http.StatusBadRequest:
			if n := svc.Stats().Drift.Sessions; n != 0 {
				t.Fatalf("rejected update created %d drift sessions", n)
			}
		default:
			t.Fatalf("unexpected status %d: %s", rec.Code, rec.Body.String())
		}
	})
}
