package main

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
	"time"
)

// fuzzSolveTimeout is the server -solve-timeout the fuzzer resolves
// request deadlines against.
const fuzzSolveTimeout = 30 * time.Second

// checkSolveRequest runs one decoded request through the same resolution
// the /solve handler applies. An arch or timeout_seconds error is the
// handler's 400; a resolved point either passes Params.Validate or fails
// it (model construction then answers 422), and its deadline lies in
// (0, -solve-timeout]. Either way the cache key must survive a JSON round
// trip of the request, since it is the point's identity in the cache.
func checkSolveRequest(t *testing.T, req *solveRequest) {
	t.Helper()
	p, arch, err := req.params()
	if err != nil {
		if (req.Arch == "" || req.Arch == "4v" || req.Arch == "6v") && req.TimeoutSeconds == 0 {
			t.Fatalf("arch %q rejected: %v", req.Arch, err)
		}
		return
	}
	if arch != "4v" && arch != "6v" {
		t.Fatalf("params() resolved arch %q", arch)
	}
	if d := req.timeout(fuzzSolveTimeout); d <= 0 || d > fuzzSolveTimeout {
		t.Fatalf("timeout_seconds %g resolves to %v, outside (0, %v]", req.TimeoutSeconds, d, fuzzSolveTimeout)
	}
	_ = p.Validate(arch == "6v")
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("decoded request does not re-encode: %v", err)
	}
	var again solveRequest
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatalf("re-encoded request %s does not decode: %v", data, err)
	}
	p2, arch2, err := again.params()
	if err != nil || arch2 != arch || solveKey(arch2, p2) != solveKey(arch, p) {
		t.Fatalf("round trip of %s changed the point: %q/%v -> %q/%v (%v)", data, arch, p, arch2, p2, err)
	}
}

// FuzzSolveRequest feeds arbitrary bodies through the HTTP decode
// boundary of POST /solve and POST /solve/batch: body -> json.Decode ->
// params() -> Params.Validate. No input may panic.
func FuzzSolveRequest(f *testing.F) {
	f.Add([]byte(`{"arch":"6v"}`))
	f.Add([]byte(`{"arch":"4v","n":24}`))
	f.Add([]byte(`{"arch":"6v","n":10,"mttc":1200,"interval":400,"timeout_seconds":2}`))
	f.Add([]byte(`{"arch":"4v","n":-3,"f":9,"r":-1,"alpha":2,"p":-0.5}`))
	f.Add([]byte(`{"arch":"6v","timeout_seconds":1e10}`))
	f.Add([]byte(`{"arch":"4v","timeout_seconds":-2}`))
	f.Add([]byte(`{"arch":"42v"}`))
	f.Add([]byte(`{"mttc":0,"mttf":-1,"mtrj":1e308}`))
	f.Add([]byte(`{"requests":[{"arch":"4v"},{"arch":"42v"},{"arch":"4v","n":-1}]}`))
	f.Add([]byte(`{"requests":[]}`))
	f.Add([]byte(`{"requests":null}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req solveRequest
		if err := json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxSolveBody)).Decode(&req); err == nil {
			checkSolveRequest(t, &req)
		}
		var breq batchRequest
		if err := json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxBatchBody)).Decode(&breq); err == nil {
			for i := range breq.Requests {
				checkSolveRequest(t, &breq.Requests[i])
			}
		}
	})
}
