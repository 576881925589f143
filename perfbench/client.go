package main

// The three public entry points the workloads drive: the database/sql
// driver, the HTTP server over loopback, and nodb.DB in-process. Each
// returns result cells as decimal text for the oracle, plus the engine's
// own wall time and work where the entry point reports them.

import (
	"bufio"
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"nodb"
	"nodb/driver"
	"nodb/internal/server"
)

// reply is what one request returned.
type reply struct {
	rows  [][]string
	wall  time.Duration // engine wall time; 0 when the entry point hides it
	work  nodb.WorkSnapshot
	bytes int64   // response body bytes (HTTP)
	got   *answer // the reduced rows, when the client reduced them as it read
}

// cell renders one scanned value as decimal text.
func cell(v any) string {
	switch x := v.(type) {
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	default:
		return fmt.Sprint(x)
	}
}

// sqlClient queries through database/sql. Its engine is reachable through
// the connector so that a single sequential client can attribute work
// deltas to each query.
type sqlClient struct {
	db  *sql.DB
	eng *nodb.DB
}

// openSQL opens a database/sql handle exactly as sql.Open("nodb", dsn)
// does, keeping the connector to reach its engine.
func openSQL(dsn string) (*sqlClient, error) {
	c, err := (&driver.Driver{}).OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	db := sql.OpenDB(c)
	if err := db.Ping(); err != nil {
		db.Close()
		return nil, err
	}
	return &sqlClient{db: db, eng: c.(*driver.Connector).DB()}, nil
}

func (c *sqlClient) close() error { return c.db.Close() }

func (c *sqlClient) do(ctx context.Context, q query) (reply, error) {
	before := c.eng.Work()
	rows, err := c.db.QueryContext(ctx, q.sql)
	if err != nil {
		return reply{}, err
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return reply{}, err
	}
	vals := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	var rep reply
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return reply{}, err
		}
		row := make([]string, len(vals))
		for i, v := range vals {
			row[i] = cell(v)
		}
		rep.rows = append(rep.rows, row)
	}
	if err := rows.Err(); err != nil {
		return reply{}, err
	}
	rep.work = c.eng.Work().Sub(before)
	return rep, nil
}

// directQuery runs q on an in-process nodb.DB.
func directQuery(ctx context.Context, db *nodb.DB, q query) (reply, error) {
	res, err := db.QueryContext(ctx, q.sql)
	if err != nil {
		return reply{}, err
	}
	rep := reply{wall: res.Stats.Wall, work: res.Stats.Work}
	for _, r := range res.Rows {
		row := make([]string, len(r))
		for i, v := range r {
			row[i] = v.String()
		}
		rep.rows = append(rep.rows, row)
	}
	return rep, nil
}

// httpServer is an in-process server.Server on a loopback port, configured
// as nodbd ships it without timers: no snapshot flusher, no follow poll.
type httpServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan error
	cli  *http.Client
}

// startServer serves db on 127.0.0.1 to at most conns client connections.
// When tr is non-nil, every request whose client sent a span id is wrapped
// in a "server" span whose id the client learns from a response header.
func startServer(db *nodb.DB, tr *tracer, conns int) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{
		srv: server.New(server.Config{
			DB:             db,
			MaxInFlight:    64,
			DefaultTimeout: 30 * time.Second,
			MaxTimeout:     5 * time.Minute,
		}),
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
		cli: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
	}
	s.srv.MarkReady()
	h := s.srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, err := strconv.Atoi(r.Header.Get("X-Bench-Span"))
			if err != nil {
				inner.ServeHTTP(w, r)
				return
			}
			req, _ := strconv.ParseInt(r.Header.Get("X-Request-Id"), 10, 64)
			name := "server"
			if strings.HasSuffix(r.URL.Path, "/stream") {
				name = "server.stream"
			}
			id := tr.begin(name, parent, req)
			w.Header().Set("X-Bench-Span", strconv.Itoa(id))
			inner.ServeHTTP(w, r)
			tr.end(id)
		})
	}
	s.hs = &http.Server{Handler: h}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for the serve loop and releases the
// server. It does not close the DB.
func (s *httpServer) close() error {
	err := s.hs.Shutdown(context.Background())
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.cli.CloseIdleConnections()
	if cerr := s.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// call sends one request and returns the response body. A non-200 status
// is an error carrying the body.
func (s *httpServer) call(ctx context.Context, method, path string, body any, span int, req int64) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	hr, err := http.NewRequestWithContext(ctx, method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	if req != 0 {
		hr.Header.Set("X-Request-Id", strconv.FormatInt(req, 10))
		hr.Header.Set("X-Bench-Span", strconv.Itoa(span))
	}
	resp, err := s.cli.Do(hr)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(b))
	}
	return resp, nil
}

// attach attaches path as table name through PUT /v1/tables/{name}.
func (s *httpServer) attach(ctx context.Context, name, path string) error {
	resp, err := s.call(ctx, http.MethodPut, "/v1/tables/"+name, map[string]any{"path": path}, 0, 0)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

// refresh folds appended rows in through POST /v1/tables/{name}/refresh
// and returns the rows it added.
func (s *httpServer) refresh(ctx context.Context, name string) (int64, error) {
	resp, err := s.call(ctx, http.MethodPost, "/v1/tables/"+name+"/refresh", nil, 0, 0)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		Grown     bool  `json:"grown"`
		RowsAdded int64 `json:"rows_added"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	if !out.Grown {
		return 0, fmt.Errorf("refresh %s: append was not folded in incrementally", name)
	}
	return out.RowsAdded, nil
}

type statsJSON struct {
	WallMicros int64             `json:"wall_us"`
	Work       nodb.WorkSnapshot `json:"work"`
}

// do runs q over /v1/query, or over /v1/query/stream for the "stream"
// class. With a tracer, span and req tie the server's span to the
// caller's, and the engine's reported wall time becomes the server span's
// child.
func (s *httpServer) do(ctx context.Context, q query, tr *tracer, span int, req int64) (reply, error) {
	path := "/v1/query"
	if q.class == "stream" {
		path = "/v1/query/stream"
	}
	resp, err := s.call(ctx, http.MethodPost, path, map[string]any{"query": q.sql}, span, req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	cr := &countReader{r: resp.Body}
	var rep reply
	var st statsJSON
	if q.class == "stream" {
		var got answer
		st, got, err = readStream(cr)
		rep.got = &got
	} else {
		var out struct {
			Rows  [][]json.Number `json:"rows"`
			Stats statsJSON       `json:"stats"`
		}
		dec := json.NewDecoder(cr)
		dec.UseNumber()
		if err = dec.Decode(&out); err == nil {
			st = out.Stats
			for _, r := range out.Rows {
				row := make([]string, len(r))
				for i, v := range r {
					row[i] = string(v)
				}
				rep.rows = append(rep.rows, row)
			}
		}
	}
	if err != nil {
		return reply{}, err
	}
	rep.wall = time.Duration(st.WallMicros) * time.Microsecond
	rep.work = st.Work
	rep.bytes = cr.n
	if id, err := strconv.Atoi(resp.Header.Get("X-Bench-Span")); err == nil && tr != nil {
		now := time.Now()
		tr.add("engine", id, req, now.Add(-rep.wall), now)
	}
	return rep, nil
}

// readStream parses an NDJSON result — a columns header, one array per
// row, and a stats or error trailer — and reduces the rows to their count
// and order-free checksum as it reads, so that a large result is never
// held in memory.
func readStream(r io.Reader) (statsJSON, answer, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	var got answer
	var cells []int64
	header := true
	for sc.Scan() {
		line := sc.Bytes()
		if header {
			header = false
			continue
		}
		if len(line) > 0 && line[0] == '{' {
			var tr struct {
				Stats *statsJSON `json:"stats"`
				Error string     `json:"error"`
			}
			if err := json.Unmarshal(line, &tr); err != nil {
				return statsJSON{}, got, err
			}
			if tr.Stats == nil {
				return statsJSON{}, got, fmt.Errorf("stream failed: %s", tr.Error)
			}
			return *tr.Stats, got, nil
		}
		var err error
		if cells, err = intArray(line, cells[:0]); err != nil {
			return statsJSON{}, got, err
		}
		got.rows++
		got.check += rowHash(cells)
	}
	if err := sc.Err(); err != nil {
		return statsJSON{}, got, err
	}
	return statsJSON{}, got, errors.New("stream ended without a trailer")
}

// intArray parses a JSON array of integers such as [12,-3].
func intArray(line []byte, out []int64) ([]int64, error) {
	if len(line) < 2 || line[0] != '[' || line[len(line)-1] != ']' {
		return out, fmt.Errorf("stream row %q is not an array", line)
	}
	for _, f := range bytes.Split(line[1:len(line)-1], []byte{','}) {
		v, err := strconv.ParseInt(string(f), 10, 64)
		if err != nil {
			return out, fmt.Errorf("stream row %q: %w", line, err)
		}
		out = append(out, v)
	}
	return out, nil
}

type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
