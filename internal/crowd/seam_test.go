package crowd

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"acd/internal/record"
)

// The three probes are the three rungs a source can offer — scalar only,
// plus a batch path, plus a cancellable batch path — each counting which
// path was taken and answering a pair with its Lo id.
type scalarProbe struct{ scalar, batch, ctxBatch int }

func (s *scalarProbe) Score(p record.Pair) float64 { s.scalar++; return float64(p.Lo) }
func (s *scalarProbe) Config() Config              { return ThreeWorker(0) }

func loScores(pairs []record.Pair) []float64 {
	out := make([]float64, len(pairs))
	for i, p := range pairs {
		out[i] = float64(p.Lo)
	}
	return out
}

type batchProbe struct{ scalarProbe }

func (s *batchProbe) ScoreBatch(pairs []record.Pair) []float64 {
	s.batch++
	return loScores(pairs)
}

type ctxProbe struct{ batchProbe }

func (s *ctxProbe) ScoreBatchCtx(ctx context.Context, pairs []record.Pair) ([]float64, error) {
	s.ctxBatch++
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return loScores(pairs), nil
}

// TestAnswerBatchLadder: the one resolver takes the richest path the
// source and the caller's context allow, and only a context error fails
// a batch.
func TestAnswerBatchLadder(t *testing.T) {
	pairs := adaptivePairs(7)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	scalar, batch, full, fullNoCtx, dead := &scalarProbe{}, &batchProbe{}, &ctxProbe{}, &ctxProbe{}, &ctxProbe{}
	for _, row := range []struct {
		name    string
		ctx     context.Context
		src     Source
		counts  *scalarProbe
		want    scalarProbe
		wantErr error
	}{
		{"scalar source", context.Background(), scalar, scalar, scalarProbe{scalar: 7}, nil},
		{"batch source", context.Background(), batch, &batch.scalarProbe, scalarProbe{batch: 1}, nil},
		{"cancellable source, context bound", context.Background(), full, &full.scalarProbe, scalarProbe{ctxBatch: 1}, nil},
		{"cancellable source, no context", nil, fullNoCtx, &fullNoCtx.scalarProbe, scalarProbe{batch: 1}, nil},
		{"cancelled context", cancelled, dead, &dead.scalarProbe, scalarProbe{ctxBatch: 1}, context.Canceled},
	} {
		got, err := AnswerBatch(row.ctx, row.src, pairs)
		if err != row.wantErr {
			t.Errorf("%s: err = %v, want %v", row.name, err, row.wantErr)
		}
		if *row.counts != row.want {
			t.Errorf("%s: paths taken %+v, want %+v", row.name, *row.counts, row.want)
		}
		if err != nil {
			if got != nil {
				t.Errorf("%s: a failed batch returned scores", row.name)
			}
			continue
		}
		for i, p := range pairs {
			if got[i] != float64(p.Lo) {
				t.Fatalf("%s: score %d = %v, want %v", row.name, i, got[i], float64(p.Lo))
			}
		}
	}
}

// TestSessionObserve: the observer is called once per charged iteration
// — after the batch is booked, with exactly the fresh pairs in asking
// order — never for a fully cached batch, and its error aborts the
// session like a cancelled context while the batch it saw stays booked.
func TestSessionObserve(t *testing.T) {
	src := &batchProbe{}
	s := NewSession(src)
	pairs := adaptivePairs(12)

	var seen [][]record.Pair
	var fail error
	s.Observe(func(fresh []record.Pair, scores []float64) error {
		if st := s.Stats(); st.Iterations != len(seen)+1 {
			t.Errorf("observer ran before its iteration was booked: %+v", st)
		}
		for i, p := range fresh {
			if scores[i] != float64(p.Lo) {
				t.Errorf("observer got score %v for %v", scores[i], p)
			}
		}
		seen = append(seen, append([]record.Pair(nil), fresh...))
		return fail
	})

	s.Ask(pairs[:5])
	// Known pairs and in-batch duplicates are not fresh.
	s.Ask([]record.Pair{pairs[2], pairs[6], pairs[5], pairs[6], pairs[0]})
	s.Ask(pairs[:5]) // fully cached: no iteration, no call
	want := [][]record.Pair{pairs[:5], {pairs[6], pairs[5]}}
	if !reflect.DeepEqual(seen, want) {
		t.Fatalf("observer saw %v, want %v", seen, want)
	}

	fail = errors.New("journal full")
	got := s.Ask(pairs[7:10])
	if s.Err() != fail {
		t.Fatalf("Err = %v, want the observer's error", s.Err())
	}
	if !reflect.DeepEqual(got, make([]float64, 3)) {
		t.Errorf("aborting Ask returned %v, want zeros", got)
	}
	booked, batches := s.Stats(), src.batch
	if booked.Pairs != 10 || booked.Iterations != 3 {
		t.Errorf("the batch the observer refused must stay booked: %+v", booked)
	}
	s.Ask(pairs[10:])
	if s.Stats() != booked || src.batch != batches || len(seen) != 3 {
		t.Errorf("an aborted session kept buying: stats %+v, %d source batches, %d observer calls", s.Stats(), src.batch, len(seen))
	}
}
