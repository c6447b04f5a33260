package harness

import (
	"encoding/json"
	"fmt"
	"io"

	"macrochip/internal/distrib"
)

// ServeWorker runs the worker side of the distributed-sweep protocol: read
// a cell from in, execute it through RunCell on the worker's own Runner
// (forced serial and never redistributed), write its result to out, and
// read the next — `macrosim -worker` over stdin/stdout, `macrosim
// -connect` over TCP. The protocol is stop-and-wait, so a worker computes
// one cell at a time; a machine contributes more cores by running more
// worker processes.
//
// Results reach the rendezvous store only through the Runner's cache (the
// atomic temp-file+rename publish in expcache, plus its optional HTTP
// remote tier) and the result message back to the coordinator; the worker
// never writes an entry in place, so a worker killed mid-cell can leave at
// worst an orphaned temp file, never a torn entry (pinned by the
// kill-mid-cell regression test).
//
// A cell that fails — bad spec, unknown kind, or a panicking simulation —
// answers with an error message and the worker keeps serving; only a
// protocol violation from the coordinator (who is trusted) or a transport
// error ends the session. Closing quit drains gracefully: the cell being
// computed finishes and is answered, then ServeWorker returns nil before
// taking another (the SIGTERM path of cmd/macrosim). A clean EOF or a
// shutdown message also returns nil.
func ServeWorker(in io.Reader, out io.Writer, r Runner, name string, quit <-chan struct{}, logw io.Writer) error {
	r.Workers = 1
	r.Dist = nil
	if logw == nil {
		logw = io.Discard
	}
	if err := distrib.Write(out, distrib.Msg{Type: distrib.TypeHello, Version: distrib.Version, Worker: name}); err != nil {
		return fmt.Errorf("harness: worker hello: %w", err)
	}

	// The reader runs apart from the loop only so that quit can interrupt
	// a wait for the next cell.
	type incoming struct {
		msg distrib.Msg
		err error
	}
	msgs := make(chan incoming)
	go func() {
		rd := distrib.NewReader(in)
		for {
			m, err := rd.Read()
			select {
			case msgs <- incoming{m, err}:
			case <-quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	cells := 0
	for {
		var in incoming
		select {
		case <-quit:
			fmt.Fprintf(logw, "worker %s: draining after %d cells\n", name, cells)
			return nil
		case in = <-msgs:
		}
		if in.err == io.EOF {
			return nil
		}
		if in.err != nil {
			return fmt.Errorf("harness: worker %s: %w", name, in.err)
		}
		switch m := in.msg; m.Type {
		case distrib.TypeCell:
			if err := distrib.Write(out, executeCell(r, m)); err != nil {
				return fmt.Errorf("harness: worker %s: writing reply: %w", name, err)
			}
			cells++
		case distrib.TypeShutdown:
			fmt.Fprintf(logw, "worker %s: shutdown after %d cells\n", name, cells)
			return nil
		default:
			return fmt.Errorf("harness: worker %s: unexpected %q message from coordinator", name, m.Type)
		}
	}
}

// executeCell runs one cell to a terminal reply: a result message with the
// canonical JSON value, or an error message carrying the failure (panics
// included — a worker must survive any single bad cell).
func executeCell(r Runner, m distrib.Msg) distrib.Msg {
	v, err := RunCell(r, m.Kind, m.Spec)
	if err != nil {
		return distrib.Msg{Type: distrib.TypeError, ID: m.ID, Error: err.Error()}
	}
	data, err := json.Marshal(v)
	if err != nil {
		return distrib.Msg{Type: distrib.TypeError, ID: m.ID, Error: fmt.Sprintf("encoding result: %v", err)}
	}
	return distrib.Msg{Type: distrib.TypeResult, ID: m.ID, Value: data}
}
