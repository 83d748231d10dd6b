package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzNormalizeSpec checks the admission step daemon and coordinator share:
// for any JSON-decodable spec NormalizeSpec accepts, normalizing again is a
// no-op and SpecDigest is stable under renormalization — the property that
// lets a coordinator re-dispatch a recorded spec, and lets a worker
// renormalize a coordinator-normalized one, without moving its digest. The
// seed corpus lives in testdata/fuzz/FuzzNormalizeSpec; run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzNormalizeSpec -fuzztime 30s ./internal/serve
func FuzzNormalizeSpec(f *testing.F) {
	envs := []NormEnv{
		{GraphID: "g", NumNodes: 300, DefaultStart: 7, DefaultWalkLen: 15, MaxWorkersPerJob: 4},
		// A backend without a ground-truth view has no default start.
		{GraphID: "g", NumNodes: 300, DefaultStart: -1, DefaultWalkLen: 15, MaxWorkersPerJob: 1},
	}
	f.Fuzz(func(t *testing.T, data string) {
		var spec JobSpec
		if json.Unmarshal([]byte(data), &spec) != nil {
			return
		}
		for _, env := range envs {
			norm, err := NormalizeSpec(spec, env)
			if err != nil {
				continue
			}
			again, err := NormalizeSpec(norm, env)
			if err != nil {
				t.Fatalf("renormalizing %+v: %v", norm, err)
			}
			if !reflect.DeepEqual(again, norm) {
				t.Fatalf("not idempotent: %+v -> %+v", norm, again)
			}
			if d1, d2 := SpecDigest(env, norm), SpecDigest(env, again); d1 != d2 {
				t.Fatalf("digest moved under renormalization: %s -> %s for %+v", d1, d2, norm)
			}
		}
	})
}
