package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// specDecoders strict-decodes a spec of every wire kind without running it.
var specDecoders = map[string]func([]byte) (any, error){
	loadpoint{}.kind():  decodeAny[loadpoint],
	benchcell{}.kind():  decodeAny[benchcell],
	resilience{}.kind(): decodeAny[resilience],
	inference{}.kind():  decodeAny[inference],
}

func decodeAny[C interface{ kind() string }](spec []byte) (any, error) {
	return decodeSpec[C](spec)
}

// FuzzCellSpec feeds arbitrary bytes to the worker's strict spec decode
// for every wire kind; no cell ever runs. Decode must never panic, and a
// spec it accepts must have a canonical form: its json.Marshal bytes must
// decode again and marshal to the same bytes. That fixed point is what
// lets a spec be the cache key, the wire payload and the local run at
// once — the coordinator's bytes and the worker's decode agree exactly.
func FuzzCellSpec(f *testing.F) {
	for kind := range wireCells {
		if specDecoders[kind] == nil {
			f.Fatalf("wire kind %q has no decoder here", kind)
		}
	}
	for _, sc := range specCases() {
		data, err := json.Marshal(sc.spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"params":{},"bogus_field":1}`))
	f.Add([]byte(`{"load":1e400}`))
	f.Add([]byte(`{"seed":1} trailing`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for kind, decode := range specDecoders {
			x, err := decode(data)
			if err != nil {
				continue
			}
			a, err := json.Marshal(x)
			if err != nil {
				t.Fatalf("%s: accepted spec does not marshal: %v", kind, err)
			}
			y, err := decode(a)
			if err != nil {
				t.Fatalf("%s: canonical spec %s does not decode: %v", kind, a, err)
			}
			b, err := json.Marshal(y)
			if err != nil {
				t.Fatalf("%s: re-decoded spec does not marshal: %v", kind, err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s: canonical form is not a fixed point:\nfirst:  %s\nsecond: %s", kind, a, b)
			}
		}
	})
}
