package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer (or one stage the
// program reported for it), as written to trace-<workload>.ndjson. Spans
// of one operation (a batch slot, a submitted HTTP batch, a watched query)
// share op_id; parent is the id of the span that caused this one, 0 for a
// root.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     string `json:"op_id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	epoch time.Time
	next  atomic.Int64 // last id handed out

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reserve hands out the id a span will be recorded under, so that spans
// it causes can name it as their parent before it ends.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span under an id from reserve.
func (t *tracer) record(id int64, name, layer, op string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Name: name, Layer: layer, Op: op, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
}

// add records a finished span under a fresh id and returns the id for
// children to name.
func (t *tracer) add(name, layer, op string, parent int64, start, end time.Time) int64 {
	id := t.reserve()
	t.record(id, name, layer, op, parent, start, end)
	return id
}

// write dumps the spans as NDJSON.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
