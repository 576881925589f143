package httpapi_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nodb"
	"nodb/internal/cluster"
	"nodb/internal/csvgen"
	"nodb/internal/httpapi"
	"nodb/internal/qos"
	"nodb/internal/server"
)

// frontConfig is the slice of configuration both serving sides take.
type frontConfig struct {
	maxInFlight  int
	maxBodyBytes int64
	tenants      *qos.Registry
}

// side is one running front door under test.
type side struct {
	name  string
	url   string
	front *httpapi.Front
}

// sides serves a node and a 1-shard coordinator with the same front-door
// configuration. The coordinator's shard is a plain node over the same
// table, so every answer it gives passes through its own front door.
func sides(t *testing.T, cfg frontConfig) []side {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := csvgen.WriteFile(path, csvgen.Spec{Rows: 200, Cols: 2, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	db := nodb.Open(nodb.Options{})
	t.Cleanup(func() { db.Close() })
	if err := db.Attach("t", nodb.TableSpec{Path: path}); err != nil {
		t.Fatal(err)
	}
	serve := func(h http.Handler) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}

	node := server.New(server.Config{DB: db, MaxInFlight: cfg.maxInFlight, MaxBodyBytes: cfg.maxBodyBytes, Tenants: cfg.tenants})
	node.MarkReady()
	shard := server.New(server.Config{DB: db})
	shard.MarkReady()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		Shards:       []string{serve(shard)},
		MaxInFlight:  cfg.maxInFlight,
		MaxBodyBytes: cfg.maxBodyBytes,
		Tenants:      cfg.tenants,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return []side{
		{"node", serve(node), node.Front},
		{"coordinator", serve(coord), coord.Front},
	}
}

func registry(t *testing.T, rejectUnknown bool) *qos.Registry {
	t.Helper()
	reg, err := qos.NewRegistry([]qos.Tenant{
		{Name: "alpha", Key: "alpha-key", Weight: 3},
		{Name: "beta", Key: "beta-key", Weight: 1},
	}, rejectUnknown)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// reply is one decoded response.
type reply struct {
	status int
	header http.Header
	code   string // envelope error code, "" on success
	msg    string
}

func do(t *testing.T, method, url, key, reqID, body string) reply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if resp.StatusCode != http.StatusOK {
		if err := json.Unmarshal(b, &env); err != nil {
			t.Fatalf("%s %s: status %d with a non-envelope body %q", method, url, resp.StatusCode, b)
		}
	}
	return reply{resp.StatusCode, resp.Header, env.Error.Code, env.Error.Message}
}

const countQuery = `{"query":"select count(*) from t"}`

// TestFrontDoorContract runs one table of front-door cases against a node
// and a coordinator: both must answer identically, because the contract
// lives in one place.
func TestFrontDoorContract(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) frontConfig
		// hold reserves admission slots before the request; the returned
		// funcs release them.
		hold   func(t *testing.T, f *httpapi.Front) []func()
		method string
		path   string
		key    string
		reqID  string
		body   string
		status int
		code   string
		check  func(t *testing.T, r reply)
	}{
		{
			name: "request id echoed", method: http.MethodGet, path: "/v1/tables", reqID: "trace-42",
			status: http.StatusOK,
			check: func(t *testing.T, r reply) {
				if got := r.header.Get("X-Request-Id"); got != "trace-42" {
					t.Fatalf("X-Request-Id = %q, want the caller's trace-42", got)
				}
			},
		},
		{
			name: "request id generated", method: http.MethodPost, path: "/v1/query", body: countQuery,
			status: http.StatusOK,
			check: func(t *testing.T, r reply) {
				if got := r.header.Get("X-Request-Id"); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
					t.Fatalf("generated X-Request-Id = %q, want 16 hex digits", got)
				}
			},
		},
		{
			name: "missing query", method: http.MethodPost, path: "/v1/query", body: `{}`,
			status: http.StatusBadRequest, code: "invalid_request",
		},
		{
			name: "bad timeout_ms", method: http.MethodGet, path: "/v1/query/stream?q=select+count(*)+from+t&timeout_ms=soon",
			status: http.StatusBadRequest, code: "invalid_request",
		},
		{
			name: "method not allowed", method: http.MethodDelete, path: "/v1/explain",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed",
			check: func(t *testing.T, r reply) {
				if got := r.header.Get("Allow"); got != "GET, POST" {
					t.Fatalf("Allow = %q, want \"GET, POST\"", got)
				}
			},
		},
		{
			name:   "body over the cap",
			cfg:    func(*testing.T) frontConfig { return frontConfig{maxBodyBytes: 32} },
			method: http.MethodPost, path: "/v1/query",
			body:   `{"query":"select count(*) from t where a1 > 0 and a1 < 99999999"}`,
			status: http.StatusRequestEntityTooLarge, code: "payload_too_large",
		},
		{
			name:   "unknown key wins over a bad body",
			cfg:    func(t *testing.T) frontConfig { return frontConfig{tenants: registry(t, true)} },
			method: http.MethodPost, path: "/v1/query", key: "nope", body: `{"query":`,
			status: http.StatusUnauthorized, code: "unknown_api_key",
		},
		{
			name: "tenant at capacity",
			cfg:  func(t *testing.T) frontConfig { return frontConfig{maxInFlight: 4, tenants: registry(t, true)} },
			hold: func(t *testing.T, f *httpapi.Front) []func() {
				// beta's weight buys it one of the four slots.
				return holdSlots(t, f, "beta", 1)
			},
			method: http.MethodPost, path: "/v1/query", key: "beta-key", body: countQuery,
			status: http.StatusTooManyRequests, code: "rate_limited",
			check: func(t *testing.T, r reply) {
				if r.header.Get("Retry-After") == "" || !strings.Contains(r.msg, `tenant "beta"`) {
					t.Fatalf("tenant 429 = %+v, want Retry-After and a tenant-scoped message", r)
				}
			},
		},
		{
			name: "server at capacity",
			cfg:  func(*testing.T) frontConfig { return frontConfig{maxInFlight: 1} },
			hold: func(t *testing.T, f *httpapi.Front) []func() {
				return holdSlots(t, f, qos.DefaultTenant, 1)
			},
			method: http.MethodPost, path: "/v1/query/stream", body: countQuery,
			status: http.StatusTooManyRequests, code: "rate_limited",
			check: func(t *testing.T, r reply) {
				if r.header.Get("Retry-After") == "" || !strings.Contains(r.msg, "server at capacity") {
					t.Fatalf("global 429 = %+v, want Retry-After and a server-wide message", r)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cfg frontConfig
			if tc.cfg != nil {
				cfg = tc.cfg(t)
			}
			for _, s := range sides(t, cfg) {
				if tc.hold != nil {
					for _, release := range tc.hold(t, s.front) {
						defer release()
					}
				}
				r := do(t, tc.method, s.url+tc.path, tc.key, tc.reqID, tc.body)
				if r.status != tc.status || r.code != tc.code {
					t.Fatalf("%s: got (%d, %q %q), want (%d, %q)", s.name, r.status, r.code, r.msg, tc.status, tc.code)
				}
				if r.header.Get("X-Request-Id") == "" {
					t.Fatalf("%s: response without X-Request-Id", s.name)
				}
				if tc.check != nil {
					tc.check(t, r)
				}
			}
		})
	}
}

// holdSlots takes n admission slots for tenant, as running queries would.
func holdSlots(t *testing.T, f *httpapi.Front, tenant string, n int) []func() {
	t.Helper()
	var out []func()
	for i := 0; i < n; i++ {
		release, ok := f.Admit(httptest.NewRecorder(), tenant)
		if !ok {
			t.Fatalf("slot %d for %q refused", i, tenant)
		}
		out = append(out, release)
	}
	return out
}

// TestFrontDoorPanicRecovery mounts a panicking handler on both sides:
// the client gets a 500 envelope carrying its request id, the panic is
// counted, and the process keeps serving.
func TestFrontDoorPanicRecovery(t *testing.T) {
	for _, s := range sides(t, frontConfig{}) {
		s.front.Handle("/v1/test/panic", func(http.ResponseWriter, *http.Request) {
			panic("handler bug")
		})
		r := do(t, http.MethodGet, s.url+"/v1/test/panic", "", "panic-7", "")
		if r.status != http.StatusInternalServerError || r.code != "internal" || !strings.Contains(r.msg, "panic-7") {
			t.Fatalf("%s: panic answered %+v, want a 500 envelope naming request panic-7", s.name, r)
		}
		if got := s.front.Admission().Server.Panics; got != 1 {
			t.Fatalf("%s: panics = %d, want 1", s.name, got)
		}
		if r := do(t, http.MethodPost, s.url+"/v1/query", "", "", countQuery); r.status != http.StatusOK {
			t.Fatalf("%s: query after the panic = %d, want 200", s.name, r.status)
		}
	}
}

// TestTenantRejectionsSumToServer pins the admission accounting: every
// 429 counts against the tenant it refused, whichever pool was full, so
// the per-tenant rejected values in /v1/stats add up to the server's.
func TestTenantRejectionsSumToServer(t *testing.T) {
	for _, s := range sides(t, frontConfig{maxInFlight: 4, tenants: registry(t, false)}) {
		// The tenant pools (alpha 2, beta 1, default 1) sum to the global
		// pool, so traffic alone always meets a full tenant pool first.
		// Slots held outside any tenant fill the global pool instead,
		// leaving beta's own slot free: the global pool refuses.
		outside := holdSlots(t, s.front, "", 4)
		if r := do(t, http.MethodPost, s.url+"/v1/query", "beta-key", "", countQuery); r.status != http.StatusTooManyRequests {
			t.Fatalf("%s: query with the global pool full = %d, want 429", s.name, r.status)
		}
		for _, release := range outside {
			release()
		}
		// Now beta's own pool refuses.
		beta := holdSlots(t, s.front, "beta", 1)
		if r := do(t, http.MethodPost, s.url+"/v1/query", "beta-key", "", countQuery); r.status != http.StatusTooManyRequests {
			t.Fatalf("%s: query with beta's pool full = %d, want 429", s.name, r.status)
		}
		beta[0]()

		var stats struct {
			Server struct {
				Rejected int64 `json:"rejected"`
			} `json:"server"`
			Tenants map[string]struct {
				Rejected int64 `json:"rejected"`
			} `json:"tenants"`
		}
		resp, err := http.Get(s.url + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&stats)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, ts := range stats.Tenants {
			sum += ts.Rejected
		}
		if stats.Server.Rejected != 2 || sum != stats.Server.Rejected {
			t.Fatalf("%s: server rejected %d, tenants sum to %d; want 2 and equal", s.name, stats.Server.Rejected, sum)
		}
	}
}
