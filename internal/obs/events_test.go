package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// withEvents runs f with event recording on against a fresh default
// ring, restoring the previous state afterwards.
func withEvents(t testing.TB, f func()) {
	t.Helper()
	prev := EventsEnable()
	EventsReset()
	defer func() {
		SetEventSink(nil)
		SetEventsEnabled(prev)
	}()
	f()
}

func TestEventsDisabledRecordsNothing(t *testing.T) {
	prev := EventsDisable()
	defer SetEventsEnabled(prev)
	EventsReset()
	RecordEvent(Event{Method: "solve"})
	if got := EventsSnapshot(); len(got) != 0 {
		t.Errorf("disabled ring recorded %d events", len(got))
	}
}

func TestEventsSnapshotOrderedByTime(t *testing.T) {
	withEvents(t, func() {
		base := time.Unix(1000, 0)
		// Record out of time order; snapshot must sort.
		RecordEvent(Event{Time: base.Add(2 * time.Second), Method: "solve", Cache: "miss"})
		RecordEvent(Event{Time: base, Method: "solve", Cache: "hit"})
		RecordEvent(Event{Time: base.Add(time.Second), Method: "batch", Items: 3})
		got := EventsSnapshot()
		if len(got) != 3 {
			t.Fatalf("got %d events, want 3", len(got))
		}
		if got[0].Cache != "hit" || got[1].Method != "batch" || got[2].Cache != "miss" {
			t.Errorf("events out of time order: %+v", got)
		}
	})
}

func TestEventsRingWraps(t *testing.T) {
	withEvents(t, func() {
		SetEventCapacity(4)
		defer SetEventCapacity(DefaultEventCapacity)
		base := time.Unix(2000, 0)
		for i := 0; i < 10; i++ {
			RecordEvent(Event{Time: base.Add(time.Duration(i) * time.Second), Status: 200 + i})
		}
		got := EventsSnapshot()
		if len(got) != 4 {
			t.Fatalf("ring holds %d events, want 4", len(got))
		}
		for i, ev := range got {
			if ev.Status != 206+i {
				t.Errorf("event %d status = %d, want %d (last 4 survive)", i, ev.Status, 206+i)
			}
		}
	})
}

func TestEventsFillTimeAndConcurrentRecord(t *testing.T) {
	withEvents(t, func() {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 50; j++ {
					RecordEvent(Event{Method: "solve", Status: 200})
				}
			}()
		}
		wg.Wait()
		got := EventsSnapshot()
		if len(got) != 400 {
			t.Fatalf("got %d events, want 400", len(got))
		}
		for _, ev := range got {
			if ev.Time.IsZero() {
				t.Fatal("RecordEvent did not stamp a zero Time")
			}
		}
	})
}

func TestEventSinkStreamsJSONLines(t *testing.T) {
	withEvents(t, func() {
		var buf bytes.Buffer
		SetEventSink(&buf)
		RecordEvent(Event{Time: time.Unix(3000, 0), Method: "solve", Cache: "coalesced", Key: "k9"})
		RecordEvent(Event{Time: time.Unix(3001, 0), Method: "batch", Items: 2})
		SetEventSink(nil)
		RecordEvent(Event{Method: "solve"}) // after nil sink: ring only

		sc := bufio.NewScanner(&buf)
		var lines int
		for sc.Scan() {
			var ev Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("sink line %d is not JSON: %v", lines, err)
			}
			lines++
			if lines == 1 && (ev.Cache != "coalesced" || ev.Key != "k9") {
				t.Errorf("first sink line = %+v", ev)
			}
		}
		if lines != 2 {
			t.Errorf("sink got %d lines, want 2", lines)
		}
		if got := EventsSnapshot(); len(got) != 3 {
			t.Errorf("ring has %d events, want 3", len(got))
		}
	})
}

// TestEventsDroppedCountsUnreadOverwrites exercises the overflow path:
// overwriting a slot nobody has snapshotted yet increments
// events.dropped, while recycling already-read slots stays free.
func TestEventsDroppedCountsUnreadOverwrites(t *testing.T) {
	prevObs := Enable()
	if !prevObs {
		defer Disable()
	}
	withEvents(t, func() {
		SetEventCapacity(4)
		defer SetEventCapacity(DefaultEventCapacity)
		dropped := func() int64 { return CounterFor("events.dropped").Value() }
		base := dropped()

		for i := 0; i < 4; i++ {
			RecordEvent(Event{Method: "solve"})
		}
		if d := dropped() - base; d != 0 {
			t.Fatalf("filling an empty ring dropped %d events", d)
		}

		// Two more writes overwrite never-read slots.
		RecordEvent(Event{Method: "solve"})
		RecordEvent(Event{Method: "solve"})
		if d := dropped() - base; d != 2 {
			t.Fatalf("unread overwrites dropped %d, want 2", d)
		}

		// A snapshot marks everything read; the next full wrap recycles
		// read slots for free, and only the write past the wrap drops.
		EventsSnapshot()
		for i := 0; i < 4; i++ {
			RecordEvent(Event{Method: "solve"})
		}
		if d := dropped() - base; d != 2 {
			t.Fatalf("read overwrites counted as drops: %d, want 2", d)
		}
		RecordEvent(Event{Method: "solve"})
		if d := dropped() - base; d != 3 {
			t.Fatalf("post-wrap unread overwrite dropped %d, want 3", d)
		}
	})
}
