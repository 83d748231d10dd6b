package osn

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gen"
)

// neighborsOne is the single-node form of the fallible surface: a batch of
// one, as Client.admit issues for a Neighbors miss.
func neighborsOne(fb FallibleBackend, ctx context.Context, v int) ([]int32, error) {
	out := make([][]int32, 1)
	failed := make([]bool, 1)
	err := fb.NeighborsBatchCtx(ctx, []int32{int32(v)}, out, failed)
	return out[0], err
}

// faultGraphBackend returns a BA graph over a plain mem backend.
func faultGraphBackend(t *testing.T) MemBackend {
	t.Helper()
	g := gen.BarabasiAlbert(300, 3, rand.New(rand.NewSource(42)))
	return NewMemBackend(g)
}

// TestFaultSimZeroRatePassThrough: with all rates zero and no windows the
// injector is transparent — every access returns ground truth, no faults
// are counted, and the infallible surface matches the inner backend exactly.
func TestFaultSimZeroRatePassThrough(t *testing.T) {
	inner := faultGraphBackend(t)
	fs, err := NewFaultSim(inner, FaultConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for v := 0; v < inner.NumNodes(); v++ {
		got, err := neighborsOne(fs, ctx, v)
		if err != nil {
			t.Fatalf("node %d: unexpected fault: %v", v, err)
		}
		want := inner.Neighbors(v)
		if len(got) != len(want) {
			t.Fatalf("node %d: %d neighbors, want %d", v, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("node %d neighbor %d: %d != %d", v, i, got[i], want[i])
			}
		}
	}
	if n := fs.Stats().Total(); n != 0 {
		t.Fatalf("zero-rate sim injected %d faults", n)
	}
}

// TestFaultScheduleDeterministic: the fault schedule is a pure function of
// (seed, attempt sequence) — two sims with the same seed produce the
// bit-identical fault/pass sequence for the same call sequence, and a
// different seed produces a different one.
func TestFaultScheduleDeterministic(t *testing.T) {
	inner := faultGraphBackend(t)
	mk := func(seed int64) *FaultSim {
		fs, err := NewFaultSim(inner, FaultConfig{
			Seed:          seed,
			TransientRate: 0.2,
			TimeoutRate:   0.1,
			RateLimitRate: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	trace := func(fs *FaultSim) []int {
		ctx := context.Background()
		out := make([]int, 0, 600)
		for i := 0; i < 600; i++ {
			_, err := neighborsOne(fs, ctx, i%inner.NumNodes())
			var fe *FaultError
			switch {
			case err == nil:
				out = append(out, -1)
			case errors.As(err, &fe):
				out = append(out, int(fe.Kind))
			default:
				t.Fatalf("attempt %d: unexpected error type %T", i, err)
			}
		}
		return out
	}
	a, b, c := trace(mk(123)), trace(mk(123)), trace(mk(124))
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %d != %d", i, a[i], b[i])
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the identical 600-attempt schedule")
	}
	st := mk(123).Stats()
	if st.Attempts != 0 {
		t.Fatalf("fresh sim has %d attempts", st.Attempts)
	}
}

// TestFaultScheduleBatchMatchesSingle: the batched path consumes the same
// schedule positions as the equivalent single-call sequence — per-element
// decisions are made sequentially on the caller goroutine, so batching
// (including the inner backend's concurrent fanout) cannot perturb the
// schedule.
func TestFaultScheduleBatchMatchesSingle(t *testing.T) {
	inner := faultGraphBackend(t)
	cfg := FaultConfig{Seed: 9, TransientRate: 0.3}
	mk := func() *FaultSim {
		fs, err := NewFaultSim(inner, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	ctx := context.Background()
	vs := []int32{0, 5, 10, 15, 20, 25, 30, 35}

	single := mk()
	wantFail := make([]bool, len(vs))
	for i, v := range vs {
		_, err := neighborsOne(single, ctx, int(v))
		wantFail[i] = err != nil
	}

	batched := mk()
	out := make([][]int32, len(vs))
	failed := make([]bool, len(vs))
	err := batched.NeighborsBatchCtx(ctx, vs, out, failed)
	anyFail := false
	for i := range vs {
		if failed[i] != wantFail[i] {
			t.Fatalf("element %d: batched failed=%v, single-call failed=%v", i, failed[i], wantFail[i])
		}
		anyFail = anyFail || failed[i]
		if failed[i] && out[i] != nil {
			t.Fatalf("element %d failed but has a list", i)
		}
		if !failed[i] {
			want := inner.Neighbors(int(vs[i]))
			if len(out[i]) != len(want) {
				t.Fatalf("element %d: %d neighbors, want %d", i, len(out[i]), len(want))
			}
		}
	}
	if anyFail && err == nil {
		t.Fatal("batch had failed elements but returned nil error")
	}
	if !anyFail && err != nil {
		t.Fatalf("batch had no failed elements but returned %v", err)
	}
	if !anyFail {
		t.Fatal("want at least one fault in this fixed-seed batch (schedule drifted?)")
	}
}

// TestFaultSimOutageWindows: sequence-space outage windows reject exactly
// the attempts inside [From, Until), and the manual toggle overrides
// everything until EndOutage.
func TestFaultSimOutageWindows(t *testing.T) {
	inner := faultGraphBackend(t)
	fs, err := NewFaultSim(inner, FaultConfig{
		Seed:    1,
		Outages: []SeqWindow{{From: 3, Until: 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		_, err := neighborsOne(fs, ctx, 0)
		inWindow := i >= 3 && i < 6
		if inWindow && err == nil {
			t.Fatalf("attempt %d inside the outage window succeeded", i)
		}
		if !inWindow && err != nil {
			t.Fatalf("attempt %d outside the outage window failed: %v", i, err)
		}
		var fe *FaultError
		if err != nil && (!errors.As(err, &fe) || fe.Kind != FaultOutage) {
			t.Fatalf("attempt %d: want an outage fault, got %v", i, err)
		}
	}

	fs.StartOutage()
	if _, err := neighborsOne(fs, ctx, 0); err == nil {
		t.Fatal("manual outage did not reject")
	}
	fs.EndOutage()
	if _, err := neighborsOne(fs, ctx, 0); err != nil {
		t.Fatalf("after EndOutage: %v", err)
	}
	if got := fs.Stats().Injected[FaultOutage]; got != 4 {
		t.Fatalf("outage faults = %d, want 4 (3 windowed + 1 manual)", got)
	}
}

// TestFaultConfigValidation rejects out-of-range rates.
func TestFaultConfigValidation(t *testing.T) {
	inner := faultGraphBackend(t)
	for _, cfg := range []FaultConfig{
		{TransientRate: -0.1},
		{TransientRate: 1.5},
		{TransientRate: 0.5, TimeoutRate: 0.4, RateLimitRate: 0.2}, // sum > 1
	} {
		if _, err := NewFaultSim(inner, cfg); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
}

// TestFaultSimInfallibleDegrade: through the infallible Backend surface a
// fault degrades to an empty answer instead of panicking — the safety net
// when no resilience layer is stacked above.
func TestFaultSimInfallibleDegrade(t *testing.T) {
	inner := faultGraphBackend(t)
	fs, err := NewFaultSim(inner, FaultConfig{Seed: 3, Outages: []SeqWindow{{From: 0, Until: 1 << 62}}})
	if err != nil {
		t.Fatal(err)
	}
	if nbr := fs.Neighbors(0); nbr != nil {
		t.Fatalf("faulted Neighbors returned %v", nbr)
	}
	if d := fs.Degree(0); d != 0 {
		t.Fatalf("faulted Degree returned %d", d)
	}
	if _, ok := fs.Attr("stars", 0); ok {
		t.Fatal("faulted Attr returned present")
	}
	if fs.NumNodes() != inner.NumNodes() {
		t.Fatal("metadata must never fault")
	}
}

// TestFaultRateLimitRetryAfter: rate-limit faults carry the configured
// retry-after hint.
func TestFaultRateLimitRetryAfter(t *testing.T) {
	inner := faultGraphBackend(t)
	fs, err := NewFaultSim(inner, FaultConfig{
		Seed:          5,
		RateLimitRate: 1,
		RetryAfter:    3 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, cerr := neighborsOne(fs, context.Background(), 0)
	var fe *FaultError
	if !errors.As(cerr, &fe) || fe.Kind != FaultRateLimit || fe.RetryAfter != 3*time.Millisecond {
		t.Fatalf("want a rate-limit fault with retry-after 3ms, got %v", cerr)
	}
}
