package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// Local is an in-process server on an ephemeral loopback port: the
// harness behind the serving drills and the loopback smoke tests.
// Requests travel through a real TCP socket and the real HTTP stack, so
// measured latencies include everything a remote client would pay
// except the wire.
type Local struct {
	// URL is the server's base URL ("http://127.0.0.1:PORT").
	URL string
	// Server is the engine core, for snapshots and assertions.
	Server *Server

	http *http.Server
	ln   net.Listener
	done chan error

	stopOnce sync.Once
	stopErr  error
	endOnce  sync.Once
	endErr   error
}

// StartLocal opens a server from cfg and serves it on 127.0.0.1:0.
func StartLocal(cfg Config) (*Local, error) {
	srv, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	l, err := Serve(srv)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return l, nil
}

// Serve wraps an already-open Server in a loopback listener.
func Serve(srv *Server) (*Local, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	l := &Local{
		URL:    "http://" + ln.Addr().String(),
		Server: srv,
		http:   hs,
		ln:     ln,
		done:   make(chan error, 1),
	}
	go func() { l.done <- hs.Serve(ln) }()
	return l, nil
}

// Close drains in-flight requests, writes a final checkpoint, and
// releases the engine and its journals — the graceful-shutdown path.
// Use Abort to model losing the machine instead. Close and Abort are
// idempotent and mutually exclusive: whichever runs first wins, later
// calls return its result.
func (l *Local) Close() error {
	l.endOnce.Do(func() {
		err := l.stopHTTP()
		if cerr := l.Server.Checkpoint(); err == nil {
			err = cerr
		}
		if cerr := l.Server.Close(); err == nil {
			err = cerr
		}
		l.endErr = err
	})
	return l.endErr
}

// Abort stops serving and releases file handles WITHOUT the final
// checkpoint — the journal directory is left exactly as the last
// acknowledged write put it, like a process that was SIGKILLed (the
// WAL is fsynced per event, so the on-disk state is the same; only the
// in-memory engine is lost). Crash scenarios that want a harsher image
// copy the journal tree mid-write instead. Idempotent, and shares the
// once-guard with Close.
func (l *Local) Abort() error {
	l.endOnce.Do(func() {
		err := l.stopHTTP()
		if cerr := l.Server.Close(); err == nil {
			err = cerr
		}
		l.endErr = err
	})
	return l.endErr
}

// stopHTTP shuts the HTTP server down gracefully and reaps the serve
// goroutine. Idempotent — the done channel can only be received once.
func (l *Local) stopHTTP() error {
	l.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := l.http.Shutdown(ctx)
		if serr := <-l.done; serr != nil && serr != http.ErrServerClosed && err == nil {
			err = fmt.Errorf("serve: %w", serr)
		}
		l.stopErr = err
	})
	return l.stopErr
}
