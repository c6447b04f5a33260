package distrib

import (
	"errors"
	"io"
	"strings"
	"testing"
)

// roundTripMsgs holds one message of every type.
var roundTripMsgs = []Msg{
	{Type: TypeHello, Version: Version, Worker: "proc-0"},
	{Type: TypeCell, ID: 7, Kind: "loadpoint", Spec: []byte(`{"load":0.5}`)},
	{Type: TypeResult, ID: 7, Value: []byte(`{"events":42}`)},
	{Type: TypeError, ID: 9, Error: "cell panicked: boom"},
	{Type: TypeShutdown},
}

// TestRoundTrip pins that every message type written by Write is read back
// field-for-field by Read — the whole protocol is these two functions, so
// this is the compatibility contract between coordinator and worker builds.
func TestRoundTrip(t *testing.T) {
	var b strings.Builder
	for _, m := range roundTripMsgs {
		if err := Write(&b, m); err != nil {
			t.Fatalf("Write(%+v): %v", m, err)
		}
	}
	r := NewReader(strings.NewReader(b.String()))
	for i, want := range roundTripMsgs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("Read #%d: %v", i, err)
		}
		if got.Type != want.Type || got.Version != want.Version || got.Worker != want.Worker ||
			got.ID != want.ID || got.Kind != want.Kind ||
			got.Error != want.Error || string(got.Spec) != string(want.Spec) ||
			string(got.Value) != string(want.Value) {
			t.Errorf("Read #%d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after all messages: err = %v, want io.EOF", err)
	}
}

// rejectionCases are lines the grammar rejects, each with its Reason; max,
// when positive, shrinks the reader's line cap.
var rejectionCases = []struct {
	name   string
	input  string
	max    int
	reason string
}{
	{"not JSON", "this is not json\n", 0, ReasonMalformed},
	{"empty line", "\n", 0, ReasonMalformed},
	{"truncated at EOF", `{"type":"shutdown"}`, 0, ReasonMalformed},
	{"two messages one line", `{"type":"shutdown"} {"type":"shutdown"}` + "\n", 0, ReasonMalformed},
	{"unknown field", `{"type":"shutdown","bogus":1}` + "\n", 0, ReasonMalformed},
	{"oversized", `{"type":"` + strings.Repeat("x", 100) + `"}` + "\n", 64, ReasonOversized},
	{"unknown type", `{"type":"launch-missiles"}` + "\n", 0, ReasonBadType},
	{"empty type", `{"id":3}` + "\n", 0, ReasonBadType},
	{"hello without version", `{"type":"hello","worker":"w"}` + "\n", 0, ReasonIncomplete},
	// Protocol v3 dropped the credit window: an older hello is refused
	// before any cell, by its version or by the field v3 no longer knows.
	{"v2 hello without credits", `{"type":"hello","version":2,"worker":"w"}` + "\n", 0, ReasonBadVersion},
	{"v1 hello without credits", `{"type":"hello","version":1,"worker":"w"}` + "\n", 0, ReasonBadVersion},
	{"hello negative credits", `{"type":"hello","version":1,"worker":"w","credits":-3}` + "\n", 0, ReasonMalformed},
	{"v2 hello with credits", `{"type":"hello","version":2,"worker":"w","credits":8}` + "\n", 0, ReasonMalformed},
	{"v3 hello with credits", `{"type":"hello","version":3,"worker":"w","credits":1}` + "\n", 0, ReasonMalformed},
	{"future hello", `{"type":"hello","version":4,"worker":"w"}` + "\n", 0, ReasonBadVersion},
	{"cell without id", `{"type":"cell","kind":"loadpoint","spec":{}}` + "\n", 0, ReasonIncomplete},
	{"cell negative id", `{"type":"cell","id":-1,"kind":"loadpoint","spec":{}}` + "\n", 0, ReasonIncomplete},
	{"cell without kind", `{"type":"cell","id":1,"spec":{}}` + "\n", 0, ReasonIncomplete},
	{"cell without spec", `{"type":"cell","id":1,"kind":"loadpoint"}` + "\n", 0, ReasonIncomplete},
	{"result without id", `{"type":"result","value":{}}` + "\n", 0, ReasonIncomplete},
	{"result without value", `{"type":"result","id":4}` + "\n", 0, ReasonIncomplete},
	{"error without id", `{"type":"error","error":"x"}` + "\n", 0, ReasonIncomplete},
	{"error without message", `{"type":"error","id":4}` + "\n", 0, ReasonIncomplete},
}

// TestReadRejections pins the grammar: every malformed, oversized, or
// incomplete line is rejected with a *ProtocolError carrying the documented
// Reason — the coordinator's teardown-and-reassign policy keys off these.
func TestReadRejections(t *testing.T) {
	for _, tc := range rejectionCases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(tc.input))
			if tc.max > 0 {
				r = NewReaderSize(strings.NewReader(tc.input), tc.max)
			}
			_, err := r.Read()
			var pe *ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("Read() err = %v, want *ProtocolError", err)
			}
			if pe.Reason != tc.reason {
				t.Fatalf("Read() reason = %q (%s), want %q", pe.Reason, pe.Detail, tc.reason)
			}
		})
	}
}

// TestReaderRecoversAfterOversized pins that an oversized line is consumed
// in full: the reader reports the violation but does not serve the tail of
// the bad line as a fresh message. (The coordinator tears the connection
// down on any protocol error, so all that matters is that the error is
// surfaced, not resynchronization.)
func TestOversizedDetectedMidLine(t *testing.T) {
	// The line is far longer than the cap and longer than bufio's internal
	// buffer, so the reader must detect the violation mid-line rather than
	// buffering the whole thing first.
	line := `{"type":"hello","worker":"` + strings.Repeat("x", 1<<16) + `"}` + "\n"
	r := NewReaderSize(strings.NewReader(line), 128)
	_, err := r.Read()
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Reason != ReasonOversized {
		t.Fatalf("Read() err = %v, want oversized ProtocolError", err)
	}
}

// trickleReader returns one byte per Read call — the worst-case fragmented
// transport (a TCP stream delivering a frame across many segments).
type trickleReader struct {
	s string
	i int
}

func (r *trickleReader) Read(p []byte) (int, error) {
	if r.i >= len(r.s) {
		return 0, io.EOF
	}
	p[0] = r.s[r.i]
	r.i++
	return 1, nil
}

// TestReadFragmentedStream pins that framing is independent of transport
// segmentation: a byte-at-a-time stream carrying several messages — with
// boundaries landing mid-token, mid-string, and mid-number — reads back
// exactly like a single contiguous write.
func TestReadFragmentedStream(t *testing.T) {
	msgs := []Msg{
		{Type: TypeHello, Version: Version, Worker: "frag"},
		{Type: TypeCell, ID: 1, Kind: "loadpoint", Spec: []byte(`{"load":0.125,"pattern":"uniform"}`)},
		{Type: TypeResult, ID: 1, Value: []byte(`{"mean_latency_ns":1234.5}`)},
		{Type: TypeShutdown},
	}
	var b strings.Builder
	for _, m := range msgs {
		if err := Write(&b, m); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&trickleReader{s: b.String()})
	for i, want := range msgs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("Read #%d: %v", i, err)
		}
		if got.Type != want.Type || got.ID != want.ID || got.Version != want.Version ||
			string(got.Spec) != string(want.Spec) || string(got.Value) != string(want.Value) {
			t.Errorf("Read #%d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("after all messages: err = %v, want io.EOF", err)
	}
}

// TestShutdownIsBare pins that shutdown needs no payload.
func TestShutdownIsBare(t *testing.T) {
	r := NewReader(strings.NewReader(`{"type":"shutdown"}` + "\n"))
	m, err := r.Read()
	if err != nil || m.Type != TypeShutdown {
		t.Fatalf("Read() = %+v, %v; want bare shutdown", m, err)
	}
}
