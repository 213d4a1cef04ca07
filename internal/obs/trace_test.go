package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// withTracing runs f with span recording forced on against a fresh ring,
// restoring the previous state afterwards.
func withTracing(t testing.TB, f func()) {
	t.Helper()
	prev := TraceEnable()
	TraceReset()
	defer SetTraceEnabled(prev)
	f()
}

func TestTraceDisabledIsInert(t *testing.T) {
	prev := TraceDisable()
	defer SetTraceEnabled(prev)
	TraceReset()
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "test.disabled")
	if sp != nil {
		t.Fatal("disabled StartSpan returned a live span")
	}
	if ctx2 != ctx {
		t.Error("disabled StartSpan derived a new context")
	}
	sp.Int("n", 4).Float("x", 1.5).Str("path", "sparse").Err(nil)
	sp.End()
	if got := TraceSnapshot(); len(got) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(got))
	}
}

func TestSpanNestingThroughContext(t *testing.T) {
	withTracing(t, func() {
		ctx, root := StartSpan(nil, "solve")
		root.Int("states", 325).Str("path", "sparse")
		ctx2, child := StartSpan(ctx, "rung.gs")
		child.Int("sweeps", 17)
		_, grand := StartSpan(ctx2, "kernel.gs")
		grand.End()
		child.End()
		root.End()

		recs := CollectTrace(root.TraceID())
		if len(recs) != 3 {
			t.Fatalf("collected %d spans, want 3", len(recs))
		}
		byName := map[string]SpanRecord{}
		for _, r := range recs {
			byName[r.Name] = r
		}
		s, c, g := byName["solve"], byName["rung.gs"], byName["kernel.gs"]
		if s.Parent != 0 || s.Root != s.ID {
			t.Errorf("root span parent=%d root=%d id=%d", s.Parent, s.Root, s.ID)
		}
		if c.Parent != s.ID || c.Root != s.ID {
			t.Errorf("child parent=%d root=%d, want %d/%d", c.Parent, c.Root, s.ID, s.ID)
		}
		if g.Parent != c.ID || g.Root != s.ID {
			t.Errorf("grandchild parent=%d root=%d, want %d/%d", g.Parent, g.Root, c.ID, s.ID)
		}
		if len(s.Attrs) != 2 || s.Attrs[0].Key != "states" || s.Attrs[0].Int != 325 {
			t.Errorf("root attrs = %+v", s.Attrs)
		}
		// Children end before the parent, so child durations must fit
		// within the parent's.
		if c.Dur > s.Dur || g.Dur > c.Dur {
			t.Errorf("child durations exceed parent: solve=%v gs=%v kernel=%v", s.Dur, c.Dur, g.Dur)
		}
	})
}

func TestSiblingTracesGetDistinctRoots(t *testing.T) {
	withTracing(t, func() {
		_, a := StartSpan(nil, "solve.a")
		a.End()
		_, b := StartSpan(nil, "solve.b")
		b.End()
		if a.Root() == b.Root() {
			t.Error("independent root spans share a trace root")
		}
		if a.TraceID() == b.TraceID() || a.TraceID() == 0 {
			t.Errorf("independent root spans share trace ID %d", a.TraceID())
		}
		if len(CollectTrace(a.TraceID())) != 1 || len(CollectTrace(b.TraceID())) != 1 {
			t.Error("CollectTrace mixed spans across traces")
		}
	})
}

// TestCollectTraceMatchesFilteredSnapshot: collecting one trace under
// the slot locks yields exactly the full snapshot filtered by trace ID,
// in the same order, when several traces' spans interleave in the ring.
func TestCollectTraceMatchesFilteredSnapshot(t *testing.T) {
	withTracing(t, func() {
		const traces = 5
		var ctxs [traces]context.Context
		var roots [traces]*TraceSpan
		for i := range roots {
			ctxs[i], roots[i] = StartSpan(nil, "interleaved.root")
			roots[i].Int("trace", int64(i))
		}
		for round := 0; round < 4; round++ {
			for i := range ctxs {
				_, c := StartSpan(ctxs[(i+round)%traces], "interleaved.child")
				c.Int("round", int64(round)).Str("k", "v")
				c.End()
			}
		}
		for i := traces - 1; i >= 0; i-- {
			roots[i].End()
		}
		all := TraceSnapshot()
		for _, root := range roots {
			var want []SpanRecord
			for _, r := range all {
				if r.Trace == root.TraceID() {
					want = append(want, r)
				}
			}
			got := CollectTrace(root.TraceID())
			if len(got) != 5 || !reflect.DeepEqual(got, want) {
				t.Errorf("trace %x: CollectTrace = %+v, filtered snapshot %+v", root.TraceID(), got, want)
			}
		}
	})
}

func TestRingWrapEvictsOldest(t *testing.T) {
	tr := NewTracer(4)
	tr.enabled.Store(true)
	var ids []uint64
	for i := 0; i < 10; i++ {
		_, sp := tr.StartSpan(nil, "wrap")
		ids = append(ids, sp.ID())
		sp.End()
	}
	recs := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(recs))
	}
	// The survivors must be exactly the 4 most recently ended spans.
	want := map[uint64]bool{}
	for _, id := range ids[len(ids)-4:] {
		want[id] = true
	}
	for _, r := range recs {
		if !want[r.ID] {
			t.Errorf("span %d survived wrap; want only the last 4 of %v", r.ID, ids)
		}
	}
}

func TestAttrOverflowDropsExtras(t *testing.T) {
	withTracing(t, func() {
		_, sp := StartSpan(nil, "attrs")
		for i := 0; i < maxSpanAttrs+3; i++ {
			sp.Int("k", int64(i))
		}
		sp.End()
		recs := CollectTrace(sp.TraceID())
		if len(recs) != 1 || len(recs[0].Attrs) != maxSpanAttrs {
			t.Fatalf("attr overflow: got %d attrs, want %d", len(recs[0].Attrs), maxSpanAttrs)
		}
	})
}

func TestErrAttachesOnlyOnError(t *testing.T) {
	withTracing(t, func() {
		_, ok := StartSpan(nil, "ok")
		ok.Err(nil)
		ok.End()
		_, bad := StartSpan(nil, "bad")
		bad.Err(context.DeadlineExceeded)
		bad.End()
		for _, r := range CollectTrace(ok.TraceID()) {
			if len(r.Attrs) != 0 {
				t.Errorf("Err(nil) attached attrs: %+v", r.Attrs)
			}
		}
		recs := CollectTrace(bad.TraceID())
		if len(recs) != 1 || len(recs[0].Attrs) != 1 || recs[0].Attrs[0].Key != "error" {
			t.Errorf("Err(err) did not attach error attr: %+v", recs)
		}
	})
}

func TestWriteTraceEventsIsChromeLoadable(t *testing.T) {
	withTracing(t, func() {
		ctx, root := StartSpan(nil, "nvp.solve")
		root.Int("states", 10).Str("path", "dense")
		_, child := StartSpan(ctx, "petri.solve")
		time.Sleep(time.Millisecond)
		child.End()
		root.End()

		var buf bytes.Buffer
		if err := EncodeTraceEvents(&buf, CollectTrace(root.TraceID())); err != nil {
			t.Fatalf("encode: %v", err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string         `json:"name"`
				Ph   string         `json:"ph"`
				TS   float64        `json:"ts"`
				Dur  float64        `json:"dur"`
				TID  uint64         `json:"tid"`
				Args map[string]any `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("trace-event output is not JSON: %v", err)
		}
		if len(doc.TraceEvents) != 2 {
			t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
		}
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				t.Errorf("event %q phase = %q, want X", ev.Name, ev.Ph)
			}
			if ev.TID != root.TraceID() {
				t.Errorf("event %q tid = %d, want trace %d", ev.Name, ev.TID, root.TraceID())
			}
			if ev.Args["trace_id"] != FormatTraceID(root.TraceID()) {
				t.Errorf("event %q trace_id arg = %v", ev.Name, ev.Args["trace_id"])
			}
			if ev.TS < 0 || ev.Dur < 0 {
				t.Errorf("event %q has negative ts/dur: %v/%v", ev.Name, ev.TS, ev.Dur)
			}
			if _, ok := ev.Args["span_id"]; !ok {
				t.Errorf("event %q missing span_id arg", ev.Name)
			}
		}
		var rootEv, childEv *float64
		for i := range doc.TraceEvents {
			ev := &doc.TraceEvents[i]
			switch ev.Name {
			case "nvp.solve":
				rootEv = &ev.Dur
				if ev.Args["path"] != "dense" {
					t.Errorf("root args = %+v", ev.Args)
				}
			case "petri.solve":
				childEv = &ev.Dur
				if _, ok := ev.Args["parent_id"]; !ok {
					t.Error("child event missing parent_id")
				}
			}
		}
		if rootEv == nil || childEv == nil {
			t.Fatal("missing expected events")
		}
		if *childEv > *rootEv {
			t.Errorf("child dur %v exceeds parent %v", *childEv, *rootEv)
		}
	})
}

func TestSummarizeTraceDepths(t *testing.T) {
	withTracing(t, func() {
		ctx, root := StartSpan(nil, "solve")
		ctx2, rung := StartSpan(ctx, "rung")
		_, kern := StartSpan(ctx2, "kernel")
		kern.Int("sweeps", 12)
		kern.End()
		rung.End()
		root.End()

		rows := SummarizeTrace(CollectTrace(root.TraceID()))
		if len(rows) != 3 {
			t.Fatalf("summary has %d rows, want 3", len(rows))
		}
		want := []struct {
			name, parent string
			depth        int
		}{{"solve", "", 0}, {"rung", "solve", 1}, {"kernel", "rung", 2}}
		for i, w := range want {
			if rows[i].Name != w.name || rows[i].Parent != w.parent || rows[i].Depth != w.depth {
				t.Errorf("row %d = %+v, want %+v", i, rows[i], w)
			}
		}
		if rows[2].Attrs["sweeps"] != int64(12) {
			t.Errorf("kernel attrs = %+v", rows[2].Attrs)
		}
	})
}

func TestSummarizeTraceOrphansBecomeRoots(t *testing.T) {
	recs := []SpanRecord{
		{ID: 5, Parent: 2, Root: 1, Name: "orphan", Dur: time.Millisecond},
	}
	rows := SummarizeTrace(recs)
	if len(rows) != 1 || rows[0].Depth != 0 || rows[0].Parent != "" {
		t.Errorf("orphaned span not surfaced as root: %+v", rows)
	}
}

func TestConcurrentSpans(t *testing.T) {
	withTracing(t, func() {
		var wg sync.WaitGroup
		const workers, per = 8, 200
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					ctx, sp := StartSpan(nil, "concurrent")
					_, c := StartSpan(ctx, "concurrent.child")
					c.End()
					sp.End()
				}
			}()
		}
		wg.Wait()
		// The default ring holds DefaultTraceCapacity spans; all slots
		// must be well-formed after heavy concurrent writes.
		for _, r := range TraceSnapshot() {
			if !strings.HasPrefix(r.Name, "concurrent") || r.ID == 0 {
				t.Fatalf("corrupt span after concurrent writes: %+v", r)
			}
		}
	})
}

// BenchmarkTraceDisabledNoAlloc guards the tracer's zero-overhead
// contract: with tracing off, StartSpan plus every attribute setter and
// End must not allocate. check.sh runs it with -benchtime=1x and fails on
// a nonzero allocs/op.
func BenchmarkTraceDisabledNoAlloc(b *testing.B) {
	prev := TraceDisable()
	defer SetTraceEnabled(prev)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx2, sp := StartSpan(ctx, "bench.trace")
		sp.Int("n", int64(i)).Str("path", "sparse").Err(nil)
		_, child := StartSpan(ctx2, "bench.trace.child")
		child.End()
		sp.End()
	}
}

func TestFormatTraceID(t *testing.T) {
	if FormatTraceID(0) != "" {
		t.Error("FormatTraceID(0) not empty")
	}
	if got := FormatTraceID(0xab); got != "00000000000000ab" {
		t.Errorf("FormatTraceID = %q", got)
	}
}

// TestTraceExportsOrderedByStart is the ordering contract: both
// TraceSnapshot (behind /traces) and EncodeTraceEvents emit spans in
// stable, monotonically non-decreasing start order, even though the ring
// stores them in claim (End) order.
func TestTraceExportsOrderedByStart(t *testing.T) {
	withTracing(t, func() {
		// Start A before B, but end B first, so ring claim order is B, A.
		_, a := StartSpan(nil, "first.started")
		time.Sleep(time.Millisecond)
		_, b := StartSpan(nil, "second.started")
		b.End()
		a.End()

		recs := TraceSnapshot()
		for i := 1; i < len(recs); i++ {
			if recs[i].Start.Before(recs[i-1].Start) {
				t.Fatalf("snapshot out of start order at %d: %v after %v", i, recs[i].Start, recs[i-1].Start)
			}
		}
		if len(recs) != 2 || recs[0].Name != "first.started" {
			t.Fatalf("snapshot order = %+v, want first.started first", recs)
		}

		// Feed the encoder the records REVERSED; output must still be
		// monotone in ts.
		rev := []SpanRecord{recs[1], recs[0]}
		var buf bytes.Buffer
		if err := EncodeTraceEvents(&buf, rev); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string  `json:"name"`
				TS   float64 `json:"ts"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Name != "first.started" {
			t.Fatalf("encoder did not re-sort: %+v", doc.TraceEvents)
		}
		for i := 1; i < len(doc.TraceEvents); i++ {
			if doc.TraceEvents[i].TS < doc.TraceEvents[i-1].TS {
				t.Fatalf("encoded ts not monotone at %d: %+v", i, doc.TraceEvents)
			}
		}
	})
}

// TestNonFiniteAttrsExportAsJSON: a span carrying an infinite or NaN
// float attribute must not break the trace export or the summary.
func TestNonFiniteAttrsExportAsJSON(t *testing.T) {
	withTracing(t, func() {
		_, sp := StartSpan(nil, "kernel")
		sp.Float("residual", math.Inf(1)).Float("delta", math.NaN()).Float("ok", 0.5)
		sp.End()
		var buf bytes.Buffer
		if err := WriteTraceEvents(&buf); err != nil {
			t.Fatalf("trace export failed: %v", err)
		}
		rows := SummarizeTrace(CollectTrace(sp.TraceID()))
		data, err := json.Marshal(rows)
		if err != nil {
			t.Fatalf("summary does not encode: %v", err)
		}
		for _, want := range []string{`"residual":"+Inf"`, `"delta":"NaN"`, `"ok":0.5`} {
			if !strings.Contains(string(data), want) {
				t.Errorf("summary %s lacks %s", data, want)
			}
		}
	})
}
