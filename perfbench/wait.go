package main

import (
	"errors"
	"os"
	"time"
)

// poller waits for work the program does on other goroutines, at GOMAXPROCS=1,
// without distorting the round it waits in. Its yield parks the caller on a
// pipe that a helper goroutine makes readable only after the caller has
// parked, so the caller wakes through the network poller: by then every
// goroutine that was runnable has run and ready sockets have been polled.
//
// The two obvious waits both distort fleet rounds. A runtime.Gosched spin
// keeps the run queue non-empty, so the scheduler never polls the network and
// frames sit on the socket until sysmon's 10 ms poll. A sleep shorter than
// 1 ms wakes up to 1 ms late once the process is idle, because the netpoller
// waits in whole milliseconds.
type poller struct {
	r, w *os.File
	kick chan struct{}
	done chan struct{}
	buf  [1]byte
}

func newPoller() (*poller, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	p := &poller{r: r, w: w, kick: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		one := []byte{1}
		for range p.kick {
			if _, err := p.w.Write(one); err != nil {
				return
			}
		}
	}()
	return p, nil
}

// errWaitTimeout reports a condition that did not hold within the wait's
// deadline.
var errWaitTimeout = errors.New("timed out waiting for the program")

// until yields until cond holds or the timeout passes.
func (p *poller) until(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errWaitTimeout
		}
		p.kick <- struct{}{}
		if _, err := p.r.Read(p.buf[:]); err != nil {
			return err
		}
	}
	return nil
}

// close stops the helper goroutine, waits for it and closes the pipe.
func (p *poller) close() {
	close(p.kick)
	<-p.done
	p.w.Close()
	p.r.Close()
}
