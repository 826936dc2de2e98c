package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONLRecords(t *testing.T) {
	var buf bytes.Buffer
	rec := NewJSONL(&buf)
	events := []Event{
		{Slot: 1, Node: 7, Kind: KindAccept, Value: 1},
		{Slot: 9, Kind: KindDone},
	}
	for _, e := range events {
		if err := rec.Record(e); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Count() != 2 {
		t.Fatalf("Count = %d", rec.Count())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var got Event
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got != events[0] {
		t.Fatalf("round trip: %+v != %+v", got, events[0])
	}
}
