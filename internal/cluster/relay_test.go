package cluster

import (
	"bytes"
	"testing"

	"repro/internal/serve"
)

// FuzzRelay feeds arbitrary bytes to the relay's NDJSON decoding as a
// worker's sample stream. It must never panic, and every row it publishes
// must lie inside the job: index in [0, count), node in [0, numNodes).
func FuzzRelay(f *testing.F) {
	f.Add([]byte(`{"i":0,"node":3,"steps":9,"cost":4}`+"\n"+`{"done":true,"state":"done"}`), 2, 300)
	f.Add([]byte(`{"i":0,"node":300,"steps":9,"cost":4}`), 2, 300) // one past the last node
	f.Add([]byte(`{"i":0,"node":-1}`), 2, 300)
	f.Add([]byte(`{"i":0,"node":1}{"i":1,"node":2}{"i":2,"node":3}`), 2, 300) // a row past the count
	f.Add([]byte(`{"i":-1,"node":5}`+"\n"+`{"done":true}`), 2, 300)
	f.Add([]byte(`{"node":5}{"done":true}`), 1, 10) // no index: not a sample row
	f.Add([]byte(`{"i":0,"node":1e400}`), 1, 10)
	f.Add([]byte(`not json`), 1, 10)
	f.Fuzz(func(t *testing.T, stream []byte, count, numNodes int) {
		relayRows(bytes.NewReader(stream), count, numNodes, func(s serve.Sample) {
			if s.Index < 0 || s.Index >= count || s.Node < 0 || s.Node >= numNodes {
				t.Fatalf("stream %q (count %d, %d nodes): published row %+v", stream, count, numNodes, s)
			}
		})
	})
}
