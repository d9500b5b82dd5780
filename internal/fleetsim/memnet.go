// Package fleetsim boots fleets of in-process reconnecting agents against
// a real ctlnet controller and measures what the control plane does under
// load: convergence time, push tail latency, bytes on the wire, and
// behavior under connection churn and report storms.
//
// The default transport is in-memory pipes: at 10-50k agents a TCP fleet
// would need two file descriptors per agent (past typical ulimits) and
// measure the loopback stack as much as the control plane. net.Pipe keeps
// the whole protocol path — framing, batching, outboxes — while staying
// fd-free. A "tcp" transport is available for smaller,
// more end-to-end runs.
package fleetsim

import (
	"context"
	"net"
	"sync"
)

// memAddr satisfies net.Addr for the in-memory listener.
type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem:fleet" }

// memListener is a net.Listener whose Dial side hands the server half of a
// net.Pipe to Accept. Accept and Dial are both safe for concurrent use.
type memListener struct {
	ch     chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newMemListener() *memListener {
	return &memListener{ch: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *memListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *memListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// Dial returns the client half of a fresh pipe whose server half is
// delivered to Accept. It honors ctx cancellation and fails once the
// listener closes (so reconnecting agents back off cleanly at shutdown).
func (l *memListener) Dial(ctx context.Context, _ string) (net.Conn, error) {
	client, server := net.Pipe()
	select {
	case l.ch <- server:
		return client, nil
	case <-l.closed:
		client.Close()
		server.Close()
		return nil, net.ErrClosed
	case <-ctx.Done():
		client.Close()
		server.Close()
		return nil, ctx.Err()
	}
}
