package main

// Tests of the dxserver binary itself: flag guards, boot over a durable
// store, graceful SIGTERM shutdown and a clean restart. TestMain re-executes
// the test binary as main() when dxserverMainEnv is set, so the tests drive
// the real process without a separate build step.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server/api"
	"repro/internal/server/client"
)

const dxserverMainEnv = "DXSERVER_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(dxserverMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// example21 is Example 2.1 of the paper: the README quickstart scenario.
const example21Setting = `
source M/2, N/2.
target E/2, F/2, G/2.
st:
  d1: M(x1,x2) -> E(x1,x2).
  d2: N(x,y) -> exists z1,z2 : E(x,z1) & F(x,z2).
target-deps:
  d3: F(y,x) -> exists z : G(x,z).
  d4: F(x,y) & F(x,z) -> y = z.
`

const example21Source = `M(a,b). N(a,b). N(a,c).`

// dxserverProc is one running dxserver process.
type dxserverProc struct {
	cmd    *exec.Cmd
	log    *bytes.Buffer
	done   chan error
	exited bool
}

// startDxserver runs main() in a child process with the given arguments.
// The process is killed at test cleanup if it is still running.
func startDxserver(t *testing.T, args ...string) *dxserverProc {
	t.Helper()
	p := &dxserverProc{cmd: exec.Command(os.Args[0], args...), log: new(bytes.Buffer), done: make(chan error, 1)}
	p.cmd.Env = append(os.Environ(), dxserverMainEnv+"=1")
	p.cmd.Stdout = p.log
	p.cmd.Stderr = p.log
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.done <- p.cmd.Wait() }()
	t.Cleanup(func() {
		if !p.exited {
			p.kill()
		}
	})
	return p
}

func (p *dxserverProc) kill() {
	p.cmd.Process.Kill()
	<-p.done
	p.exited = true
}

// wait returns the process's exit error, failing the test if it does not
// exit within d. The log is safe to read once wait has returned.
func (p *dxserverProc) wait(t *testing.T, d time.Duration) error {
	t.Helper()
	select {
	case err := <-p.done:
		p.exited = true
		return err
	case <-time.After(d):
		p.kill()
		t.Fatalf("dxserver did not exit within %v; log:\n%s", d, p.log)
		return nil
	}
}

// freeAddr returns a loopback address with a currently unused port.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// awaitHealthy polls /healthz until the server answers, failing the test
// if the process exits first.
func awaitHealthy(t *testing.T, p *dxserverProc, c *client.Client) api.Health {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		h, err := c.Health(ctx)
		cancel()
		if err == nil {
			return h
		}
		select {
		case exitErr := <-p.done:
			p.exited = true
			t.Fatalf("dxserver exited before serving: %v; log:\n%s", exitErr, p.log)
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			t.Fatalf("healthz never answered: %v; log:\n%s", err, p.log)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// post returns the raw response body of a 200 POST.
func post(t *testing.T, base, path, body string) []byte {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, b)
	}
	return b
}

// TestDurableServeShutdownRestart boots dxserver over a durable store,
// registers Example 2.1 and queries it, shuts down by SIGTERM, and boots
// again on the same directory: the graceful shutdown's final snapshot must
// leave nothing to replay, and the recovered scenario must answer
// byte-identically.
func TestDurableServeShutdownRestart(t *testing.T) {
	dir := t.TempDir()
	const drain = 10 * time.Second
	boot := func() (*dxserverProc, *client.Client, string, api.Health) {
		addr := freeAddr(t)
		p := startDxserver(t, "-addr", addr, "-data-dir", dir, "-fsync", "off", "-drain-timeout", drain.String())
		base := "http://" + addr
		c := client.New(base)
		return p, c, base, awaitHealthy(t, p, c)
	}
	const (
		chaseBody   = `{"scenario":"ex21"}`
		certainBody = `{"scenario":"ex21","query":"q(x,y) :- E(x,y).","semantics":"certain-cup"}`
	)

	p1, c1, base1, _ := boot()
	info, err := c1.Register(context.Background(), api.RegisterRequest{
		Name: "ex21", Setting: example21Setting, Source: example21Source,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !info.WeaklyAcyclic || !info.Chased {
		t.Fatalf("Example 2.1 must register eagerly chased: %+v", info)
	}
	chase1 := post(t, base1, "/v1/chase", chaseBody)
	certain1 := post(t, base1, "/v1/certain", certainBody)
	var ans api.CertainResponse
	if err := json.Unmarshal(certain1, &ans); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ans.Answers) != "[[a b]]" {
		t.Fatalf("certain⊔ of q(x,y) :- E(x,y) = %v, want [[a b]]", ans.Answers)
	}
	h, err := c1.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Scenarios != 1 || !h.Durable {
		t.Fatalf("healthz before shutdown = %+v", h)
	}

	if err := p1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p1.wait(t, drain); err != nil {
		t.Fatalf("SIGTERM exit: %v; log:\n%s", err, p1.log)
	}

	_, _, base2, h2 := boot()
	if !h2.Durable || h2.StoreScenarios != 1 || h2.Replayed != 0 {
		t.Fatalf("healthz after clean restart = %+v, want durable, 1 stored scenario, 0 replayed; first run log:\n%s", h2, p1.log)
	}
	if got := post(t, base2, "/v1/chase", chaseBody); !bytes.Equal(got, chase1) {
		t.Fatalf("chase diverged across restart:\n%s\nvs\n%s", got, chase1)
	}
	if got := post(t, base2, "/v1/certain", certainBody); !bytes.Equal(got, certain1) {
		t.Fatalf("certain diverged across restart:\n%s\nvs\n%s", got, certain1)
	}
}

// TestFlagGuards checks that contradictory flag combinations stop the
// process before it serves.
func TestFlagGuards(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"cluster-join with cluster", []string{"-cluster-join", "http://127.0.0.1:1", "-cluster", "http://127.0.0.1:2", "-cluster-self", "http://127.0.0.1:2"}},
		{"cluster-join without cluster-self", []string{"-cluster-join", "http://127.0.0.1:1"}},
		{"cluster-self alone", []string{"-cluster-self", "http://127.0.0.1:2"}},
		{"unknown fsync mode", []string{"-data-dir", t.TempDir(), "-fsync", "sometimes"}},
		{"unknown fsync mode without data-dir", []string{"-fsync", "bogus"}},
		{"unknown cluster-role without cluster", []string{"-cluster-role", "bogus"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := startDxserver(t, append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
			if err := p.wait(t, 30*time.Second); err == nil {
				t.Fatalf("dxserver %v exited 0, want a non-zero exit; log:\n%s", tc.args, p.log)
			}
		})
	}
}
