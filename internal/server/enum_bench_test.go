package server

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/chase"
	"repro/internal/server/api"
	"repro/internal/server/client"
)

// BenchmarkEnumHTTP is one /v1/enum round trip through a real listener
// (httptest) and the client, on dxbench's query-miss scenario shape:
// Example 2.1 padded with 8 copied M facts, on a server with one worker.
// Each op decodes the three solution lines and the summary. allocs/op
// counts the server's and the client's allocations together;
// BenchmarkEnumerateOn_PaddedExample21/pad=8 in internal/cwa is the
// enumeration's own share.
func BenchmarkEnumHTTP(b *testing.B) {
	s := New(Config{Workers: 1})
	var src strings.Builder
	src.WriteString(exampleSource(0))
	for j := 0; j < 8; j++ {
		fmt.Fprintf(&src, " M(u%d,v%d).", j, j)
	}
	if _, _, err := s.reg.register("pad8", abortSetting, src.String(), chase.Options{}); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	req := api.EvalRequest{Scenario: "pad8"}
	run := func() {
		n := 0
		sum, err := c.Enum(ctx, req, func(api.EnumSolution) error { n++; return nil })
		if err != nil || sum.Count != 3 || n != 3 {
			b.Fatalf("enum: %d solutions, summary %+v, err %v; want 3", n, sum, err)
		}
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
