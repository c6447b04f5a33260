package distrib

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"testing"
)

// FuzzRead feeds arbitrary bytes to the frame parser. Read must never
// panic, must fail only with io.EOF or a *ProtocolError (the source is an
// in-memory reader, so there is no transport error), and every message it
// accepts must survive a Write/Read round trip unchanged.
func FuzzRead(f *testing.F) {
	var stream bytes.Buffer
	for _, m := range roundTripMsgs {
		var line bytes.Buffer
		if err := Write(&line, m); err != nil {
			f.Fatal(err)
		}
		f.Add(line.Bytes())
		stream.Write(line.Bytes())
	}
	f.Add(stream.Bytes())
	for _, tc := range rejectionCases {
		f.Add([]byte(tc.input))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReaderSize(bytes.NewReader(data), 4096)
		for {
			m, err := r.Read()
			if err != nil {
				var pe *ProtocolError
				if err != io.EOF && !errors.As(err, &pe) {
					t.Fatalf("Read() err = %v (%T), want io.EOF or *ProtocolError", err, err)
				}
				return
			}
			var buf bytes.Buffer
			if err := Write(&buf, m); err != nil {
				t.Fatalf("Write(%+v) of an accepted message: %v", m, err)
			}
			got, err := NewReader(&buf).Read()
			if err != nil {
				t.Fatalf("re-read of %q: %v", buf.String(), err)
			}
			// Write re-encodes the raw payloads canonically (compacted,
			// HTML-escaped), so compare those in that form.
			m.Spec, m.Value = canonical(t, m.Spec), canonical(t, m.Value)
			got.Spec, got.Value = canonical(t, got.Spec), canonical(t, got.Value)
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip changed the message:\nread:    %+v\nre-read: %+v", m, got)
			}
		}
	})
}

// canonical returns raw as json.Marshal writes it, or nil when empty.
func canonical(t *testing.T, raw json.RawMessage) json.RawMessage {
	if len(raw) == 0 {
		return nil
	}
	out, err := json.Marshal(raw)
	if err != nil {
		t.Fatalf("marshal %q: %v", raw, err)
	}
	return out
}
