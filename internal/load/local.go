package load

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/server"
)

// StartLocal boots an in-process vqed daemon on an ephemeral loopback
// port and returns its base URL plus a stop function. This is what lets
// `vqeload run -self` characterize a candidate configuration without an
// external daemon: it stands up "a fleet of c workers", replays the mix
// against it, and tears it down, all inside one process.
func StartLocal(cfg server.Config) (string, func() error, error) {
	return StartLocalAt("127.0.0.1:0", cfg)
}

// StartLocalAt is StartLocal on a caller-chosen address — the chaos drill
// uses it to "restart the daemon" on the same base URL its clients are
// already pointed at.
func StartLocalAt(addr string, cfg server.Config) (string, func() error, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		//vqelint:ignore ctxflow teardown on a failed boot; no caller context exists to thread
		_ = srv.Shutdown(context.Background())
		return "", nil, fmt.Errorf("load: listen: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	// serveDone lets stop() join the accept loop: Serve returns once
	// httpSrv.Shutdown closes the listener, so teardown cannot leave the
	// goroutine (or its port) behind.
	serveDone := make(chan struct{})
	go func() {
		_ = httpSrv.Serve(ln)
		close(serveDone)
	}()
	stop := func() error {
		//vqelint:ignore ctxflow stop() outlives any request context; the bound is the local timeout
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainErr := srv.Shutdown(ctx)
		if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) && drainErr == nil {
			drainErr = err
		}
		<-serveDone
		return drainErr
	}
	return "http://" + ln.Addr().String(), stop, nil
}
