package httpapi

import (
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"nodb/internal/schema"
	"nodb/internal/storage"
)

// streamFlushEvery bounds how many rows accumulate before the NDJSON
// stream is flushed to the client, and streamFlushInterval bounds how long
// written rows may sit in the response buffer when qualifying rows trickle
// out of a selective scan (a background ticker flushes while the handler
// is blocked waiting for the next row). Together they keep a fast scan
// from being syscall-bound while a slow one delivers rows promptly.
const (
	streamFlushEvery    = 64
	streamFlushInterval = 50 * time.Millisecond
)

// streamError is the NDJSON in-band trailer for a query that dies
// mid-stream. It keeps the flat {"error": "..."} shape (headers are gone
// by then, so this is a line in a row stream, not an HTTP error body) —
// stream consumers, including the cluster coordinator's merge path,
// parse it positionally.
type streamError struct {
	Error string `json:"error"`
}

// handleQueryStream streams a result as NDJSON: a header line
// {"columns": [...]}, one JSON array per row, and a trailer line —
// {"stats": {...}} on success, {"error": "..."} if the query dies
// mid-stream. Rows are flushed incrementally, so the client sees data
// while the backend is still producing it; a disconnect cancels the
// request context, which stops the backend.
func (f *Front) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	query, tenant, ctx, done, ok := f.begin(w, r, true)
	if !ok {
		return
	}
	defer done()
	rows, err := f.b.QueryStream(ctx, query)
	f.servedBy(tenant)
	if err != nil {
		// Nothing streamed yet: a plain error response is still possible.
		WriteError(w, f.countFailure(err), "%v", err)
		return
	}
	defer rows.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	out := newLineWriter(w)
	defer out.stop()

	if err := out.line(map[string][]string{"columns": rows.Columns()}, true); err != nil {
		f.cancelled.Add(1)
		return
	}
	for n := 0; rows.Next(); n++ {
		if err := out.line(encodeRow(rows.Row()), n%streamFlushEvery == 0); err != nil {
			var uve *json.UnsupportedValueError
			if !errors.As(err, &uve) {
				// Client went away; rows.Close (deferred) stops the backend.
				f.cancelled.Add(1)
				return
			}
			// A value JSON cannot represent (NaN/Inf float). The client
			// is still connected — the failed Encode wrote nothing — so
			// report the failure in-band as the trailer.
			f.failed.Add(1)
			_ = out.line(streamError{Error: err.Error()}, true)
			return
		}
	}
	if err := rows.Err(); err != nil {
		// Headers are gone; report the failure in-band as the trailer.
		f.countFailure(err)
		_ = out.line(streamError{Error: err.Error()}, true)
		return
	}
	_ = out.line(map[string]any{"stats": rows.Stats()}, true)
}

// lineWriter writes NDJSON lines and keeps them flowing: a background
// ticker flushes pending bytes while the handler is blocked waiting for
// the next row. The ResponseWriter is not safe for concurrent use, so mu
// serializes every write and flush.
type lineWriter struct {
	mu      sync.Mutex
	enc     *json.Encoder
	flusher http.Flusher
	quit    chan struct{}
	done    chan struct{}
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	lw := &lineWriter{enc: json.NewEncoder(w), quit: make(chan struct{}), done: make(chan struct{})}
	lw.enc.SetEscapeHTML(false)
	lw.flusher, _ = w.(http.Flusher)
	go func() {
		defer close(lw.done)
		tick := time.NewTicker(streamFlushInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				lw.mu.Lock()
				lw.flush()
				lw.mu.Unlock()
			case <-lw.quit:
				return
			}
		}
	}()
	return lw
}

// line encodes v as one line, flushing afterwards when asked and the
// encode succeeded.
func (lw *lineWriter) line(v any, flush bool) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	err := lw.enc.Encode(v)
	if err == nil && flush {
		lw.flush()
	}
	return err
}

func (lw *lineWriter) flush() {
	if lw.flusher != nil {
		lw.flusher.Flush()
	}
}

// stop ends the ticker and waits for it: the writer must not be touched
// after the handler returns.
func (lw *lineWriter) stop() {
	close(lw.quit)
	<-lw.done
}

// encodeRow converts one typed row to JSON-friendly scalars.
func encodeRow(row []storage.Value) []any {
	out := make([]any, len(row))
	for j, v := range row {
		switch v.Typ {
		case schema.Int64:
			out[j] = v.I
		case schema.Float64:
			out[j] = v.F
		default:
			out[j] = v.S
		}
	}
	return out
}
