package rtree

import (
	"context"
	"errors"
	"testing"

	"repro/internal/xrand"
)

// TestCrossValidateCtxCancelled: a dead context aborts before any fold is
// trained, and the error is the context's.
func TestCrossValidateCtxCancelled(t *testing.T) {
	rng := xrand.New(5)
	data := randomDataset(rng, 200, 20, 0.05)
	m := indexMap(data)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.CrossValidateCtx(ctx, DefaultOptions(), 10, 7); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCrossValidateCtxNilMatchesCtxless: passing a nil or background
// context must not change the (deterministic) result.
func TestCrossValidateCtxNilMatchesCtxless(t *testing.T) {
	rng := xrand.New(6)
	data := randomDataset(rng, 200, 20, 0.05)
	m := indexMap(data)

	plain, err := m.CrossValidate(DefaultOptions(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := m.CrossValidateCtx(context.Background(), DefaultOptions(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	if plain.REOpt != withCtx.REOpt || plain.KOpt != withCtx.KOpt {
		t.Fatalf("ctx variant diverged: %+v vs %+v", plain, withCtx)
	}
}
