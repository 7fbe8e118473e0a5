package simnet

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/debruijn"
	"repro/internal/obs"
)

// TestSeededRunIsByteIdentical is the regression test behind the
// determinism analyzer: the same seeded workload on the same topology
// must produce the same run, byte for byte — the rendered event trace
// and the OBS_run/v1 metrics document both. Each run builds a fresh
// Network (fresh router slab, fresh arena pool, fresh recorder), so any
// nondeterminism in construction or simulation — map iteration feeding
// the trace, wall-clock reads leaking into metrics, unseeded randomness
// — shows up as a diff here.
func TestSeededRunIsByteIdentical(t *testing.T) {
	runOnce := func() (string, []byte) {
		t.Helper()
		g := debruijn.DeBruijn(3, 5)
		nw := tableNet(t, g)
		rec := obs.NewRecorder(obs.NewRegistry())
		rep, err := nw.RunOpts(PermutationLoad(),
			WithSeed(20260808), WithTrace(), WithRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Delivered == 0 || len(rep.Events) == 0 {
			t.Fatalf("degenerate run: delivered=%d events=%d", rep.Delivered, len(rep.Events))
		}
		var sb strings.Builder
		for _, e := range rep.Events {
			sb.WriteString(e.String())
			sb.WriteByte('\n')
		}
		doc, err := rec.Snapshot().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return sb.String(), doc
	}

	trace1, doc1 := runOnce()
	trace2, doc2 := runOnce()

	if trace1 != trace2 {
		l1, l2 := strings.Split(trace1, "\n"), strings.Split(trace2, "\n")
		for i := 0; i < len(l1) && i < len(l2); i++ {
			if l1[i] != l2[i] {
				t.Fatalf("trace diverges at line %d:\nrun 1: %s\nrun 2: %s", i+1, l1[i], l2[i])
			}
		}
		t.Fatalf("traces differ in length: %d vs %d lines", len(l1), len(l2))
	}
	if !bytes.Equal(doc1, doc2) {
		t.Errorf("OBS_run/v1 documents differ:\nrun 1:\n%s\nrun 2:\n%s", doc1, doc2)
	}
}
