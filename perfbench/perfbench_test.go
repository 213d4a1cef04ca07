package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestGeneratorsDeterministicInSeed(t *testing.T) {
	a, b := newHotStream(7), newHotStream(7)
	if !reflect.DeepEqual(a.schedule(500, time.Second), b.schedule(500, time.Second)) {
		t.Fatal("serve-hot schedule differs for the same seed")
	}
	if reflect.DeepEqual(newHotStream(7).schedule(500, time.Second), newHotStream(8).schedule(500, time.Second)) {
		t.Fatal("serve-hot schedule is the same for different seeds")
	}
	w1, w2 := newColdWalk(7), newColdWalk(7)
	for i := 0; i < 50; i++ {
		if x, y := w1.nextItem(), w2.nextItem(); !reflect.DeepEqual(x, y) {
			t.Fatalf("serve-cold item %d differs for the same seed: %+v vs %+v", i, x, y)
		}
	}
	if reflect.DeepEqual(newColdWalk(7).nextItem(), newColdWalk(8).nextItem()) {
		t.Fatal("serve-cold walk is the same for different seeds")
	}
}

func TestHotScheduleMix(t *testing.T) {
	sched := newHotStream(3).schedule(2000, 5*time.Second)
	if n := len(sched); n < 9000 || n > 11000 {
		t.Fatalf("%d arrivals in 5 s at 2000/s", n)
	}
	hot, keys := 0, map[string]bool{}
	for i, a := range sched {
		if i > 0 && a.due < sched[i-1].due {
			t.Fatal("arrivals out of order")
		}
		if a.hot {
			hot++
			continue
		}
		if keys[a.pt.key()] {
			t.Fatalf("miss %+v repeats a key", a.pt)
		}
		keys[a.pt.key()] = true
	}
	if share := float64(hot) / float64(len(sched)); share < 0.88 || share > 0.92 {
		t.Fatalf("hot share %.3f, want about %.2f", share, hotShare)
	}
}

func TestColdWalkNeverRepeatsAKey(t *testing.T) {
	w := newColdWalk(1)
	seen := map[string]bool{}
	sizes := map[int]int{}
	for i := 0; i < 400; i++ {
		for _, p := range w.nextItem().pts {
			k := p.key()
			if seen[k] {
				t.Fatalf("point %+v repeats a cache key", p)
			}
			seen[k] = true
			sizes[p.N]++
			if p.MTTC < coldMTTC[0] || p.MTTC > coldMTTC[1] || p.Interval < coldInterval[0] || p.Interval > coldInterval[1] {
				t.Fatalf("point %+v outside the box", p)
			}
		}
	}
	if len(sizes) != 2 || sizes[10] != sizes[12] && sizes[10] != sizes[12]+1 {
		t.Fatalf("model sizes %v, want N=10 and N=12 alternating", sizes)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples (9 beyond) accepted")
	}
	if v, err := percentile(append(xs, 999), 0.99); err != nil || v != 989 {
		t.Fatalf("p99 of 1000 samples = %v, %v; want 989", v, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples accepted")
	}
	if v, err := percentile(xs[:100], 0.9); err != nil || v != 89 {
		t.Fatalf("p90 of 100 samples = %v, %v; want 89", v, err)
	}
	if v, err := percentile(xs[:3], 0.5); err != nil || v != 1 {
		t.Fatalf("median of 3 = %v, %v", v, err)
	}
	if q, _, err := highestTail(xs[:500], 0.99, 0.9); err != nil || q != 0.9 {
		t.Fatalf("highest tail of 500 samples = p%g, %v; want p90", 100*q, err)
	}
}

// A request queued behind a slow one is charged from when it was due,
// not from when a connection was free to send it.
func TestOpenLoopMeasuresFromDueTime(t *testing.T) {
	const stall = 50 * time.Millisecond
	first := make(chan struct{}, 1)
	first <- struct{}{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-first:
			time.Sleep(stall)
		default:
		}
		w.Write([]byte(`{"reliability":0.5}`))
	}))
	defer srv.Close()
	sched := []arrival{
		{due: 0, pt: point{Arch: "4v", N: 4, MTTC: 1}},
		{due: time.Millisecond, pt: point{Arch: "4v", N: 4, MTTC: 2}},
	}
	out, _ := openLoop(newClient(1), srv.URL, sched, 1, nil)
	second := out[1]
	if second.r.status != http.StatusOK {
		t.Fatalf("second request: status %d err %v", second.r.status, second.r.err)
	}
	if lat := second.latency(); lat < stall-time.Millisecond-5*time.Millisecond {
		t.Fatalf("queued request latency %v, want at least the %v it waited", lat, stall)
	}
	if service := second.done - second.sent; service >= second.latency()-stall/2 {
		t.Fatalf("service time %v not shorter than due-time latency %v", service, second.latency())
	}
	if second.sent < stall-5*time.Millisecond {
		t.Fatalf("second request sent at %v, before the first finished", second.sent)
	}
}

func TestCounterAttribution(t *testing.T) {
	before := map[string]int64{"mrgp.power.cycles": 100, "mrgp.solve.routed_sparse": 2, "linalg.arena.hit": 5}
	after := map[string]int64{"mrgp.power.cycles": 400, "mrgp.solve.routed_sparse": 5, "linalg.arena.hit": 9, "linalg.arena.miss": 1, "servecache.evict": 3}
	got := map[string]layerValue{}
	counterLayers(got, before, after)
	if v := got["mrgp.cycles_per_solve"]; v.value != 100 || !strings.Contains(v.base, "300 / 3") {
		t.Fatalf("cycles per solve = %+v, want 100 with base 300 / 3", v)
	}
	if v := got["linalg.arena.hit_ratio"]; v.value != 0.8 || !strings.Contains(v.base, "4 / 5") {
		t.Fatalf("arena hit ratio = %+v, want 0.8 with base 4 / 5", v)
	}
	if v := got["servecache.evict"]; v.value != 3 || v.unit != "count" {
		t.Fatalf("evictions = %+v", v)
	}
	if v := got["des.events"]; v.value != 0 {
		t.Fatalf("absent counter delta = %+v, want 0", v)
	}
	if s := (ratio{1, 4}).String(); !strings.Contains(s, "0.25") || !strings.Contains(s, "1 / 4") {
		t.Fatalf("ratio prints %q without its base", s)
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "child", Start: 2 * ms, End: 5 * ms},
		{ID: 3, Parent: 1, Name: "child", Start: 4 * ms, End: 6 * ms}, // overlaps the first child
	}
	self := selfTimes(spans)
	if got := self["parent"][0]; got != (6 * ms).Seconds() {
		t.Fatalf("parent self time %v s, want 0.006", got)
	}
}

func TestCPUPerWorkWindows(t *testing.T) {
	t0 := time.Now()
	var xs []procSample
	for i := 0; i <= 4; i++ {
		xs = append(xs, procSample{at: t0.Add(time.Duration(i) * time.Second), cpu: time.Duration(i) * 100 * time.Millisecond})
	}
	// One request in flight for the whole 4 s answering 40 points: each
	// 1 s window sees 10 of them for its 100 ms of CPU.
	ws := []work{{t0, t0.Add(4 * time.Second), 40}}
	v, n := cpuPerWork(xs, ws, time.Second)
	if n != 4 || v != 10 {
		t.Fatalf("cpu per point %v ms over %d windows, want 10 ms over 4", v, n)
	}
	// Ten 1-point requests per second, each 50 ms long.
	ws = ws[:0]
	for i := 0; i < 40; i++ {
		s := t0.Add(time.Duration(i)*100*time.Millisecond + 10*time.Millisecond)
		ws = append(ws, work{s, s.Add(50 * time.Millisecond), 1})
	}
	if v, n = cpuPerWork(xs, ws, time.Second); n != 4 || math.Abs(v-10) > 1e-9 {
		t.Fatalf("cpu per request %v ms over %d windows, want 10 ms over 4", v, n)
	}
}

func TestHeadlineCheck(t *testing.T) {
	out := "E1: expected output reliability at Table II defaults\n" +
		"  system                             this repo    paper\n" +
		"  four-version (no rejuvenation)     0.8223487    0.8233000\n" +
		"  six-version (with rejuvenation)    0.94064835   0.93460000\n"
	v, err := parseHeadline(out)
	if err != nil || checkHeadline(v) != nil {
		t.Fatalf("golden headline rejected: %v %v", v, err)
	}
	v[1] += 1e-6
	if checkHeadline(v) == nil {
		t.Fatal("headline off by 1e-6 accepted")
	}
	if _, err := parseHeadline("nothing"); err == nil {
		t.Fatal("missing headline rows accepted")
	}
}

// The JSON line must carry exactly the metrics BENCHMARK.json declares.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code prints %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, e2eMetrics[i].name, e2eMetrics[i].unit)
		}
	}
	units := map[string]string{}
	for _, lm := range layerTable {
		units[lm.name] = lm.unit
	}
	if len(spec.PerLayer) != len(benchLayers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code prints %d", len(spec.PerLayer), len(benchLayers))
	}
	for i, m := range spec.PerLayer {
		if m.Name != benchLayers[i] || m.Unit != units[m.Name] {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], code %s [%s]", i, m.Name, m.Unit, benchLayers[i], units[benchLayers[i]])
		}
	}
}
