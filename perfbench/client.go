package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"nvrel"
)

// newClient returns an HTTP client holding at most conns keep-alive
// connections to the daemon.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// reply is one raw HTTP answer; decoding happens after timing.
type reply struct {
	status  int
	body    []byte
	traceID string
	err     error
}

func post(c *http.Client, url string, body []byte) reply {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: b, traceID: resp.Header.Get("X-Nvrel-Trace"), err: err}
}

// solveDiag is the part of a reply's diag block the benchmark reads.
type solveDiag struct {
	Seeded     bool `json:"seeded"`
	PowerIters int  `json:"power_iters"`
}

// solveReply is the part of a POST /solve answer the benchmark reads.
type solveReply struct {
	Reliability    float64    `json:"reliability"`
	States         int        `json:"states"`
	Cache          string     `json:"cache"`
	ElapsedSeconds float64    `json:"elapsed_seconds"`
	Diag           *solveDiag `json:"diag"`
	Trace          []struct {
		Name string `json:"name"`
	} `json:"trace"`
}

// batchReply is the part of a POST /solve/batch answer the benchmark reads.
type batchReply struct {
	Results []struct {
		Reliability float64    `json:"reliability"`
		States      int        `json:"states"`
		Cache       string     `json:"cache"`
		Diag        *solveDiag `json:"diag"`
		Error       string     `json:"error"`
	} `json:"results"`
	Groups         int     `json:"groups"`
	UniqueSolves   int     `json:"unique_solves"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}

func (r reply) decode(v any) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	return json.Unmarshal(r.body, v)
}

// answerTol is how far a served E[R] may sit from the in-process
// reference solve. Dense paper-scale solves match bit for bit; warm-seeded
// sparse solves differ in the last digits only.
const answerTol = 1e-9

// reference solves points in-process, cold, through a model cache, and
// memoizes each answer by cache key.
type reference struct {
	cache *nvrel.ModelCache
	memo  map[string]float64
}

func newReference() *reference {
	return &reference{cache: nvrel.NewModelCache(), memo: make(map[string]float64)}
}

func buildModel(c *nvrel.ModelCache, p point) (*nvrel.Model, error) {
	if p.Arch == "4v" {
		return c.BuildNoRejuvenation(p.params())
	}
	return c.BuildWithRejuvenation(p.params())
}

func (r *reference) reliability(p point) (float64, error) {
	k := p.key()
	if v, ok := r.memo[k]; ok {
		return v, nil
	}
	m, err := buildModel(r.cache, p)
	if err != nil {
		return 0, err
	}
	pi, err := m.Solve()
	if err != nil {
		return 0, err
	}
	v, err := m.ExpectedPaperReliabilityFrom(pi)
	if err != nil {
		return 0, err
	}
	r.memo[k] = v
	return v, nil
}

// check compares a served E[R] with the reference.
func (r *reference) check(p point, got float64) error {
	want, err := r.reliability(p)
	if err != nil {
		return fmt.Errorf("reference solve of %+v: %w", p, err)
	}
	if math.Abs(got-want) > answerTol || math.IsNaN(got) {
		return fmt.Errorf("%+v: served E[R]=%.15g, reference %.15g", p, got, want)
	}
	return nil
}
