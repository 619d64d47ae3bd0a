package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/snapstab/snapstab/internal/core"
)

// waiters is the registry of Await conditions pending in one group.
// Instead of polling, the engine calls Notify at the end of every atomic
// section that touched the group — a delivery batch, a step round, a
// Do — while still holding the action mutex, so each condition is
// re-evaluated exactly when the state it reads may have changed, and
// always atomically with respect to the protocol.
//
// The zero value is an open, empty registry.
type waiters struct {
	wmu    sync.Mutex
	n      atomic.Int32 // len(list), read lock-free on Notify's fast path
	list   []*waiter
	closed error // non-nil once Close ran
}

type waiter struct {
	cond func(core.Env) bool
	done chan struct{}
	err  error // written before done is closed
}

// Await blocks until cond holds in the group, ctx ends, or the
// registry is closed. section must run its argument as one atomic
// section of the group that ends with Notify (the engine's Do), so
// cond is first evaluated at registration. It returns nil, ctx.Err(), or
// the error given to Close; completion wins over a concurrent
// cancellation.
func (ws *waiters) Await(ctx context.Context, section func(func(core.Env)), cond func(core.Env) bool) error {
	w := &waiter{cond: cond, done: make(chan struct{})}
	var err error
	section(func(core.Env) {
		ws.wmu.Lock()
		defer ws.wmu.Unlock()
		if err = ws.closed; err == nil {
			ws.list = append(ws.list, w)
			ws.n.Store(int32(len(ws.list)))
		}
	})
	if err != nil {
		return err
	}
	select {
	case <-w.done:
		return w.err
	case <-ctx.Done():
	}
	ws.wmu.Lock()
	for i, x := range ws.list {
		if x == w {
			ws.list = append(ws.list[:i], ws.list[i+1:]...)
			ws.n.Store(int32(len(ws.list)))
			ws.wmu.Unlock()
			return ctx.Err()
		}
	}
	ws.wmu.Unlock()
	<-w.done // completed or closed while we were cancelling
	return w.err
}

// Notify evaluates every pending condition with env and releases those
// that hold. The caller holds the action mutex. With nothing
// pending it costs one atomic load.
func (ws *waiters) Notify(env core.Env) {
	if ws.n.Load() == 0 {
		return
	}
	ws.wmu.Lock()
	defer ws.wmu.Unlock()
	keep := ws.list[:0]
	for _, w := range ws.list {
		if w.cond(env) {
			close(w.done)
		} else {
			keep = append(keep, w)
		}
	}
	clear(ws.list[len(keep):])
	ws.list = keep
	ws.n.Store(int32(len(keep)))
}

// Close fails every pending and future Await with err. Idempotent: the
// first error sticks. It does not need the action mutex.
func (ws *waiters) Close(err error) {
	ws.wmu.Lock()
	defer ws.wmu.Unlock()
	if ws.closed == nil {
		ws.closed = err
	}
	for _, w := range ws.list {
		w.err = ws.closed
		close(w.done)
	}
	ws.list = nil
	ws.n.Store(0)
}
