package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the benchmark's own work around a call
// into a layer. Parent 0 marks a root span.
type span struct {
	name     string
	id       int
	parent   int
	start    time.Duration
	end      time.Duration
	finished bool
}

// spans records spans in memory relative to one origin. A nil *spans
// records nothing, which is how untraced runs stay free of it.
type spans struct {
	origin time.Time
	list   []span
}

func newSpans() *spans { return &spans{origin: now()} }

// begin opens a span under parent and returns its id (0 on a nil recorder).
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	id := len(s.list) + 1
	s.list = append(s.list, span{name: name, id: id, parent: parent, start: since(s.origin)})
	return id
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	sp := &s.list[id-1]
	sp.end = since(s.origin)
	sp.finished = true
}

// chromeEvent is one Chrome trace-event "complete" event, the format the
// obs package exports the modeled network in, so both open in Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write saves every span as Chrome trace-event JSON. Spans still open are
// a bug in the benchmark and fail the write.
func (s *spans) write(path string) error {
	events := make([]chromeEvent, 0, len(s.list))
	for _, sp := range s.list {
		if !sp.finished {
			return fmt.Errorf("span %q was never closed", sp.name)
		}
		parent := "none"
		if sp.parent != 0 {
			parent = s.list[sp.parent-1].name
		}
		events = append(events, chromeEvent{
			Name: sp.name, Cat: "perfbench", Ph: "X",
			TS:  float64(sp.start.Nanoseconds()) / 1e3,
			Dur: float64((sp.end - sp.start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]any{"id": sp.id, "parent_id": sp.parent, "parent": parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{
		"traceEvents": events, "displayTimeUnit": "ms",
	}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
