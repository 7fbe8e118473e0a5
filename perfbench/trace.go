package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Traced runs record a span around every call the benchmark makes into
// a layer: its name, layer, start, end, parent span and request id.
// Spans stay in memory and are written out when the run ends. A span's
// self time is its duration minus what its child spans cover; the
// duration the server reports for a request (attribute serverAttr) is
// moved from the span to the serve layer.

type span struct {
	Name   string           `json:"name"`
	Layer  string           `json:"layer"`
	Start  int64            `json:"start_ns"` // since the tracer's origin
	End    int64            `json:"end_ns"`
	Parent int              `json:"parent"` // index of the parent span; -1 for a root
	Req    int64            `json:"req"`    // request id shared by a request's spans
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// serverAttr is the span attribute carrying the server-reported
// duration of a request: serve.Outcome.LatencyNS.
const serverAttr = "serve.latency_ns"

// tracer records spans for one goroutine. A nil *tracer records
// nothing, so untraced code paths call through it freely.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: int64(since(t.origin)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(since(t.origin))
}

// attr sets an integer attribute on span i.
func (t *tracer) attr(i int, key string, v int64) {
	if t == nil || i < 0 {
		return
	}
	if t.spans[i].Attrs == nil {
		t.spans[i].Attrs = map[string]int64{}
	}
	t.spans[i].Attrs[key] = v
}

// merge appends o's spans, rebasing their parent indices.
func (t *tracer) merge(o *tracer) {
	if t == nil || o == nil {
		return
	}
	base := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// selfTime sums each layer's self time over all spans, in ns.
func (t *tracer) selfTime() map[string]int64 {
	out := map[string]int64{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		self := s.End - s.Start - child[i]
		if ns, ok := s.Attrs[serverAttr]; ok {
			self -= ns
			out["serve"] += ns
		}
		out[s.Layer] += self
	}
	return out
}

// write stores the spans as JSON under dir/traces and returns the path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	dir = filepath.Join(dir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	var spans []span
	if t != nil {
		spans = t.spans
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
