// Package distrib defines the line-oriented JSON protocol between a sweep
// coordinator and its `macrosim -worker` processes. One message is one JSON
// object on one line — the same framing whether the transport is a spawned
// worker's stdin/stdout pipes or a TCP connection from a remote machine —
// so the protocol layer is a pair of functions over io.Reader/io.Writer and
// knows nothing about processes, sockets, or simulations.
//
// The conversation is deliberately small:
//
//	worker → coordinator   {"type":"hello","version":3,"worker":"proc-0"}
//	coordinator → worker   {"type":"cell","id":7,"kind":"loadpoint","spec":{...}}
//	worker → coordinator   {"type":"result","id":7,"value":{...}}
//	worker → coordinator   {"type":"error","id":7,"error":"..."}   (cell failed)
//	coordinator → worker   {"type":"shutdown"}
//
// Dispatch is stop-and-wait: a connection holds at most one cell, and the
// coordinator sends the next only after the worker has answered the last.
// A worker computes one cell at a time, so a machine contributes its cores
// by running one worker process per core. The cell ID is the correlator: a
// result for any ID other than the one in flight (a duplicate, a stale or
// an invented answer) is a protocol violation. Coordinator and worker ship
// in one binary, so a hello at any other version is rejected outright.
//
// Every violation of that grammar — a line that is not JSON, a line over the
// size cap, an unknown type, a message missing its required fields — is
// reported as a *ProtocolError with a machine-readable Reason, never a bare
// string: the coordinator's recovery policy (tear the connection down and
// reassign the in-flight cell) keys off the error type, and the tests pin
// each reason. Trust is asymmetric: a worker is disposable, so the
// coordinator treats any protocol error as "this worker is broken" and
// reassigns; a coordinator is not, so a worker that cannot parse its input
// exits.
package distrib

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Version is the protocol revision spoken by this build, and the only one
// a coordinator admits: cells are executed by "the same code on another
// machine", and any other revision's cell grammar could silently break the
// byte-identity guarantee the distributed sweep is built on.
const Version = 3

// MaxLineBytes caps one framed message. Result values are JSON-encoded
// harness result structs (hundreds of bytes); the only large payload is a
// custom inference graph riding in a cell spec, and 8 MiB clears any
// realistic DAG while still bounding a misbehaving peer's memory damage.
const MaxLineBytes = 8 << 20

// Message types.
const (
	TypeHello    = "hello"
	TypeCell     = "cell"
	TypeResult   = "result"
	TypeError    = "error"
	TypeShutdown = "shutdown"
)

// ProtocolError reasons.
const (
	ReasonOversized  = "oversized-line"
	ReasonMalformed  = "malformed-json"
	ReasonBadType    = "unknown-type"
	ReasonIncomplete = "missing-field"
	ReasonBadVersion = "version-mismatch"
	ReasonUnexpected = "unexpected-message"
)

// Msg is the one wire message shape; Type selects which fields are
// meaningful. Spec and Value stay raw so the protocol layer never needs to
// know cell schemas — the harness owns those.
type Msg struct {
	Type string `json:"type"`
	// Version and Worker identify a hello.
	Version int    `json:"version,omitempty"`
	Worker  string `json:"worker,omitempty"`
	// ID correlates a cell with its result or error. IDs are assigned by
	// the coordinator, positive, and never reused — a requeued cell gets a
	// fresh ID, so a stale answer from a torn-down worker can never be
	// mistaken for the retry's.
	ID int64 `json:"id,omitempty"`
	// Kind and Spec describe a cell to execute.
	Kind string          `json:"kind,omitempty"`
	Spec json.RawMessage `json:"spec,omitempty"`
	// Value carries a result (the expcache-canonical JSON of the cell's
	// result struct).
	Value json.RawMessage `json:"value,omitempty"`
	// Error carries a worker-side cell failure.
	Error string `json:"error,omitempty"`
}

// ProtocolError is a framing or grammar violation. Reason is one of the
// Reason* constants; Detail is human-oriented context.
type ProtocolError struct {
	Reason string
	Detail string
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("distrib: %s (%s)", e.Reason, e.Detail)
}

// perr builds a *ProtocolError.
func perr(reason, format string, args ...any) *ProtocolError {
	return &ProtocolError{Reason: reason, Detail: fmt.Sprintf(format, args...)}
}

// Reader frames and validates incoming messages. It is not safe for
// concurrent use; each connection has exactly one reading goroutine.
type Reader struct {
	br  *bufio.Reader
	max int
}

// NewReader wraps r with the default MaxLineBytes cap.
func NewReader(r io.Reader) *Reader { return NewReaderSize(r, MaxLineBytes) }

// NewReaderSize wraps r with an explicit line cap (tests shrink it).
func NewReaderSize(r io.Reader, max int) *Reader {
	return &Reader{br: bufio.NewReader(r), max: max}
}

// readLine returns the next newline-terminated line without its terminator,
// failing with ReasonOversized once a line exceeds the cap. io.EOF is
// returned untouched only at a clean message boundary; bytes followed by
// EOF without a newline are a truncated message, reported as malformed.
func (r *Reader) readLine() ([]byte, error) {
	var line []byte
	for {
		chunk, err := r.br.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > r.max {
			return nil, perr(ReasonOversized, "line exceeds %d bytes", r.max)
		}
		switch err {
		case nil:
			return line[:len(line)-1], nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(line) == 0 {
				return nil, io.EOF
			}
			return nil, perr(ReasonMalformed, "truncated message at EOF (%d bytes, no newline)", len(line))
		default:
			return nil, err
		}
	}
}

// Read returns the next validated message. Errors are io.EOF at a clean end
// of stream, a *ProtocolError for any grammar violation, or the transport's
// own error.
func (r *Reader) Read() (Msg, error) {
	line, err := r.readLine()
	if err != nil {
		return Msg{}, err
	}
	if len(line) == 0 {
		return Msg{}, perr(ReasonMalformed, "empty line")
	}
	dec := json.NewDecoder(newByteReader(line))
	dec.DisallowUnknownFields()
	var m Msg
	if err := dec.Decode(&m); err != nil {
		return Msg{}, perr(ReasonMalformed, "%v", err)
	}
	// One JSON value per line: trailing bytes after the object mean two
	// messages were mashed onto one line.
	if dec.More() {
		return Msg{}, perr(ReasonMalformed, "trailing data after message")
	}
	if err := m.validate(); err != nil {
		return Msg{}, err
	}
	return m, nil
}

// validate enforces the per-type required fields.
func (m Msg) validate() error {
	switch m.Type {
	case TypeHello:
		if m.Version == 0 {
			return perr(ReasonIncomplete, "hello without version")
		}
		if m.Version != Version {
			return perr(ReasonBadVersion, "hello at version %d, want %d", m.Version, Version)
		}
	case TypeCell:
		if m.ID <= 0 {
			return perr(ReasonIncomplete, "cell without positive id")
		}
		if m.Kind == "" {
			return perr(ReasonIncomplete, "cell %d without kind", m.ID)
		}
		if len(m.Spec) == 0 {
			return perr(ReasonIncomplete, "cell %d without spec", m.ID)
		}
	case TypeResult:
		if m.ID <= 0 {
			return perr(ReasonIncomplete, "result without positive id")
		}
		if len(m.Value) == 0 {
			return perr(ReasonIncomplete, "result %d without value", m.ID)
		}
	case TypeError:
		if m.ID <= 0 {
			return perr(ReasonIncomplete, "error without positive id")
		}
		if m.Error == "" {
			return perr(ReasonIncomplete, "error %d without message", m.ID)
		}
	case TypeShutdown:
		// No payload.
	default:
		return perr(ReasonBadType, "type %q", m.Type)
	}
	return nil
}

// Write frames one message onto w: canonical JSON, one line. The caller
// owns write serialization (each side writes from a single goroutine).
func Write(w io.Writer, m Msg) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// byteReader is a minimal io.Reader over a byte slice; it avoids importing
// bytes just for one decoder source.
type byteReader struct {
	b []byte
	i int
}

func newByteReader(b []byte) *byteReader { return &byteReader{b: b} }

func (r *byteReader) Read(p []byte) (int, error) {
	if r.i >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.i:])
	r.i += n
	return n, nil
}
