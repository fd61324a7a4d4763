package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/metrics"
	"repro/internal/server/api"
	"repro/internal/server/client"
)

// quickstart-style setting with three CWA-solutions, so the enum stream has
// multiple lines and an abort between line 1 and line 2 is observable.
const abortSetting = `
source M/2, N/2.
target E/2, F/2, G/2.
st:
  d1: M(x1,x2) -> E(x1,x2).
  d2: N(x,y) -> exists z1,z2 : E(x,z1) & F(x,z2).
target-deps:
  d3: F(y,x) -> exists z : G(x,z).
  d4: F(x,y) & F(x,z) -> y = z.
`

// cancelAfterFirstWrite simulates a client that disconnects mid-stream: the
// first body write (the first NDJSON solution line) cancels the request
// context, so the handler's ctx.Done() check fires before the second line.
type cancelAfterFirstWrite struct {
	rec    *httptest.ResponseRecorder
	cancel context.CancelFunc
	writes int
}

func (c *cancelAfterFirstWrite) Header() http.Header  { return c.rec.Header() }
func (c *cancelAfterFirstWrite) WriteHeader(code int) { c.rec.WriteHeader(code) }

func (c *cancelAfterFirstWrite) Write(p []byte) (int, error) {
	c.writes++
	if c.writes == 1 {
		c.cancel()
	}
	return c.rec.Write(p)
}

func TestEnumStreamAbortsOnClientDisconnect(t *testing.T) {
	s := New(Config{})
	if _, _, err := s.reg.register("qs", abortSetting, `M(a,b). N(a,b). N(a,c).`, chase.Options{}); err != nil {
		t.Fatalf("register: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("POST", "/v1/enum", strings.NewReader(`{"scenario":"qs","max":10}`)).WithContext(ctx)
	w := &cancelAfterFirstWrite{rec: httptest.NewRecorder(), cancel: cancel}

	before := metrics.ServerStreamAborts.Load()
	s.ServeHTTP(w, req)

	if got := metrics.ServerStreamAborts.Load() - before; got != 1 {
		t.Fatalf("server_stream_aborts rose by %d, want 1", got)
	}
	if w.rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (abort happens after the header)", w.rec.Code)
	}
	body := w.rec.Body.String()
	if n := strings.Count(body, "\n"); n != 1 {
		t.Fatalf("stream has %d lines, want exactly 1 before the abort:\n%s", n, body)
	}
	if strings.Contains(body, `"done"`) {
		t.Fatalf("aborted stream still carries the summary line:\n%s", body)
	}
}

// TestEnumClientDecodesLongLine: the client's NDJSON scanner starts from a
// small buffer and grows it, so a solution line well past 64 KB still
// decodes whole.
func TestEnumClientDecodesLongLine(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	var src strings.Builder
	const facts = 2000
	pad := strings.Repeat("x", 60)
	for i := 0; i < facts; i++ {
		fmt.Fprintf(&src, "S(c%s%d). ", pad, i)
	}
	if _, _, err := s.reg.register("long", tinySetting, src.String(), chase.Options{}); err != nil {
		t.Fatal(err)
	}
	var sols []api.EnumSolution
	sum, err := client.New(ts.URL).Enum(context.Background(), api.EvalRequest{Scenario: "long", Max: 2}, func(sol api.EnumSolution) error {
		sols = append(sols, sol)
		return nil
	})
	if err != nil {
		t.Fatalf("enum: %v", err)
	}
	if !sum.Done || sum.Count != 1 || len(sols) != 1 {
		t.Fatalf("summary %+v with %d solutions, want one solution", sum, len(sols))
	}
	if n := len(sols[0].Solution); n <= 64<<10 {
		t.Fatalf("solution text is %d bytes; the test needs a line over 64 KB", n)
	}
	if sols[0].Atoms != facts {
		t.Fatalf("solution has %d atoms, want %d", sols[0].Atoms, facts)
	}
}
