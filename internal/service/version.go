package service

import (
	"net/http"
	"runtime/debug"
)

// APIRevision is the /v1 wire-surface revision. Bump it whenever a request
// or response shape changes incompatibly; clients compare it (GET
// /v1/version) before trusting a server.
//
// Revision history:
//
//	1 — the pre-versioning surface: /v1/plan, /v1/sweep, /v1/experiments,
//	    /v1/stats with flat {"error": "..."} error bodies.
//	2 — structured error envelopes ({"error":{"code","message"}}, legacy
//	    flat string moved to "error_string"), /v1/routing drift loop,
//	    /v1/version, api_revision + drift counters in /v1/stats, skew
//	    shorthand deprecated (DESIGN.md §16).
//	3 — the compatibility layer is gone: error bodies are exactly
//	    {"error":{"code","message"}}, and the skew shorthand and /v1/sweep's
//	    warm_start flag are unknown fields (400 bad_request). POST bodies
//	    must hold one JSON value and nothing after it.
const APIRevision = 3

// VersionResponse is the body of GET /v1/version: everything a client
// needs to decide whether it speaks this server's dialect — the module
// build version, the plan-artifact codec version (DESIGN.md §14; what a
// shared store directory must agree on), and the API revision.
type VersionResponse struct {
	ModuleVersion        string `json:"module_version"`
	ArtifactCodecVersion int    `json:"artifact_codec_version"`
	APIRevision          int    `json:"api_revision"`
}

// Version reports the server's version triple.
func Version() VersionResponse {
	v := VersionResponse{
		ModuleVersion:        "(devel)",
		ArtifactCodecVersion: artifactVersion,
		APIRevision:          APIRevision,
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		v.ModuleVersion = bi.Main.Version
	}
	return v
}

func handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, Version())
}
