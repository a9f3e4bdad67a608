package client_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/value"
)

// TestMuxSingleConnEveryResponseIsItsOwn multiplexes many goroutines'
// single evals over ONE dfbin connection to an in-process server and
// checks every response is the answer to its own request. The flow echoes
// its input (y = x + 1) and every request carries a distinct x, so a frame
// sent twice, dropped, or cross-delivered shows up as a wrong y or — a
// request the server never saw — as a timeout. Run under -race this pins
// the write queue's double buffering: roundTrip appends must never land in
// the array the writer goroutine is sending.
func TestMuxSingleConnEveryResponseIsItsOwn(t *testing.T) {
	svc := runtime.New(runtime.Config{})
	defer svc.Close()
	srv := server.New(server.Config{Service: svc})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeBinary(ln)
	defer srv.Drain(context.Background())

	// Short enough that a lost request fails the test fast, long enough
	// that a descheduled CI runner never trips it.
	c, err := client.New("dfbin://"+ln.Addr().String(),
		client.WithMaxConns(1), client.WithTimeout(20*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.RegisterSchemaText(ctx, "schema echo\nsource x\nsynth y = x + 1\ntarget y"); err != nil {
		t.Fatal(err)
	}

	const goroutines, perG = 8, 2000
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				x := int64(g*perG + i)
				res, err := c.EvalValues(ctx, "echo", "PSE100", map[string]value.Value{"x": value.Int(x)})
				if err != nil {
					errs <- fmt.Errorf("x=%d: %w", x, err)
					return
				}
				if got, ok := res.Values["y"].(int64); res.Error != "" || !ok || got != x+1 {
					errs <- fmt.Errorf("x=%d: got y=%v (error %q), want %d: someone else's response", x, res.Values["y"], res.Error, x+1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := svc.Stats(); st.Completed != goroutines*perG {
		t.Errorf("server completed %d instances, want exactly %d (duplicated or lost frames)", st.Completed, goroutines*perG)
	}
}
