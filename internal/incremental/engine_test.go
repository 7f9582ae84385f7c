package incremental

import (
	"context"
	"math"
	"reflect"
	"testing"

	"acd/internal/journal"
)

// six records: {0,1} and {2,3} are near-duplicates, 4 and 5 are loners.
func sixRecords() []Record {
	texts := []string{
		"golden dragon palace chinese broadway",
		"golden dragon palace chinese broadway ave",
		"chez olive bistro french sunset blvd",
		"chez olive bistro french sunset",
		"harbor seafood grill market st",
		"casa pepper mexican mission dr",
	}
	out := make([]Record, len(texts))
	for i, s := range texts {
		out[i] = Record{Fields: map[string]string{"text": s}}
	}
	return out
}

func TestEngineMachineFallback(t *testing.T) {
	e := New(Config{Seed: 1})
	ids, err := e.Add(sixRecords()...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ids, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("ids = %v", ids)
	}
	if e.Len() != 6 || e.ResolvedUpTo() != 0 || e.Round() != 0 {
		t.Fatalf("state = %d/%d/%d", e.Len(), e.ResolvedUpTo(), e.Round())
	}
	if e.PendingPairs() == 0 {
		t.Fatal("no pending pairs for near-duplicate records")
	}
	st, err := e.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {2, 3}, {4}, {5}}
	if got := e.Clusters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("clusters = %v, want %v", got, want)
	}
	if st.Round != 1 || e.ResolvedUpTo() != 6 || e.PendingPairs() != 0 {
		t.Errorf("post-resolve state: %+v, upTo %d, pending %d", st, e.ResolvedUpTo(), e.PendingPairs())
	}
	if st.QuestionsAsked == 0 {
		t.Errorf("machine fallback answered no questions: %+v", st)
	}

	// A second wave: one more listing of the first restaurant merges
	// into the existing cluster; the cluster's internal pair is not
	// re-asked (closure edge primed).
	if _, err := e.Add(Record{Fields: map[string]string{"text": "golden dragon palace chinese broadway blvd"}}); err != nil {
		t.Fatal(err)
	}
	st2, err := e.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want2 := [][]int{{0, 1, 6}, {2, 3}, {4}, {5}}
	if got := e.Clusters(); !reflect.DeepEqual(got, want2) {
		t.Fatalf("wave-2 clusters = %v, want %v", got, want2)
	}
	if st2.ClosureEdges == 0 || st2.InferredPositive == 0 {
		t.Errorf("wave 2 inferred nothing: %+v", st2)
	}
	if e.Round() != 2 {
		t.Errorf("round = %d", e.Round())
	}
}

func TestResolveEmptyEngine(t *testing.T) {
	e := New(Config{})
	st, err := e.Resolve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 0 || st.Clusters != 0 || len(e.Clusters()) != 0 {
		t.Errorf("empty resolve: %+v, clusters %v", st, e.Clusters())
	}
}

func TestAddAnswerValidation(t *testing.T) {
	e := New(Config{})
	if _, err := e.Add(sixRecords()...); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"negative lo":   func() error { return e.AddAnswer(-1, 2, 0.5, "") },
		"non-canonical": func() error { return e.AddAnswer(3, 2, 0.5, "") },
		"self pair":     func() error { return e.AddAnswer(2, 2, 0.5, "") },
		"beyond n":      func() error { return e.AddAnswer(0, 6, 0.5, "") },
		"nan":           func() error { return e.AddAnswer(0, 1, math.NaN(), "") },
		"inf":           func() error { return e.AddAnswer(0, 1, math.Inf(1), "") },
		"above one":     func() error { return e.AddAnswer(0, 1, 1.5, "") },
		"below zero":    func() error { return e.AddAnswer(0, 1, -0.5, "") },
	} {
		if call() == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if err := e.AddAnswer(0, 1, 0.9, "client"); err != nil {
		t.Fatal(err)
	}
	// Keep-first: a second answer for the same pair is ignored.
	if err := e.AddAnswer(0, 1, 0.1, ""); err != nil {
		t.Fatal(err)
	}
	if fc, ok := e.Answer(0, 1); !ok || fc != 0.9 {
		t.Errorf("Answer(0,1) = %v,%v, want 0.9", fc, ok)
	}
	if _, ok := e.Answer(2, 3); ok {
		t.Error("unknown pair reported known")
	}
	if e.AnswerCount() != 1 {
		t.Errorf("AnswerCount = %d", e.AnswerCount())
	}
	if src := e.Snapshot().Answers[0].Source; src != "client" {
		t.Errorf("source = %q", src)
	}
}

func TestResolveCancelled(t *testing.T) {
	e := New(Config{Seed: 1})
	if _, err := e.Add(sixRecords()...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pendingBefore := e.PendingPairs()
	if _, err := e.Resolve(ctx); err == nil {
		t.Fatal("cancelled resolve succeeded")
	}
	if e.Round() != 0 || e.ResolvedUpTo() != 0 || e.PendingPairs() != pendingBefore {
		t.Errorf("cancelled resolve mutated state: round %d upTo %d pending %d",
			e.Round(), e.ResolvedUpTo(), e.PendingPairs())
	}
	// The engine is still usable: a healthy context completes the pass.
	if _, err := e.Resolve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Round() != 1 {
		t.Errorf("round = %d after recovery from cancellation", e.Round())
	}
}

func TestRebuildRejectsCorruptHistory(t *testing.T) {
	if _, err := Rebuild(Config{}, nil, []journal.Event{
		{Seq: 1, Type: journal.EventRecordAdded, Record: &journal.RecordData{ID: 5}},
	}); err == nil {
		t.Error("out-of-order record id accepted")
	}
	if _, err := Rebuild(Config{}, nil, []journal.Event{
		{Seq: 1, Type: "bogus"},
	}); err == nil {
		t.Error("unknown event type accepted")
	}
	if _, err := Rebuild(Config{}, nil, []journal.Event{
		{Seq: 1, Type: journal.EventResolve, Resolve: &journal.ResolveData{Round: 1, ResolvedUpTo: 3}},
	}); err == nil {
		t.Error("resolve covering absent records accepted")
	}
	if _, err := Rebuild(Config{}, &journal.Checkpoint{Seq: 1, ResolvedUpTo: 9}, nil); err == nil {
		t.Error("checkpoint with resolvedUpTo beyond records accepted")
	}
	if _, err := Rebuild(Config{}, &journal.Checkpoint{
		Seq:     1,
		Records: []journal.RecordData{{ID: 0, Fields: map[string]string{"a": "b"}}},
		Stats:   journal.IndexStats{Records: 99},
	}, nil); err == nil {
		t.Error("checkpoint with wrong index stats accepted")
	}
}
