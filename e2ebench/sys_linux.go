package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer waits until an open-loop request is due. The Go runtime rounds
// sub-millisecond sleeps up to its millisecond poll timeout when the
// process is idle, and even a timerfd read through the runtime poller
// wakes tens of microseconds late on a virtual machine, which would be
// most of a cache hit's due-time latency. So the pacer sleeps on a
// timerfd until spinAhead before the due time and spins from there: the
// request then leaves on time unless the process's own work (or the
// machine) holds the goroutine up, and that delay is measured. The spin
// does not yield: a goroutine that yields in a loop keeps its P from ever
// looking idle, so work queued on the other P is not stolen and waits.
type pacer struct {
	fd uintptr
	f  *os.File
}

// spinAhead is how long before the due time the pacer stops sleeping.
const spinAhead = 100 * time.Microsecond

type itimerspec struct {
	interval syscall.Timespec
	value    syscall.Timespec
}

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// waitUntil returns at or soon after t.
func (p *pacer) waitUntil(t time.Time) error {
	if d := time.Until(t) - spinAhead; d > 0 {
		spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			return os.NewSyscallError("timerfd_settime", errno)
		}
		var buf [8]byte
		if _, err := p.f.Read(buf[:]); err != nil {
			return err
		}
	}
	for time.Now().Before(t) {
	}
	return nil
}

func (p *pacer) close() error { return p.f.Close() }

// processCPU returns the CPU time this process has used. Unlike wall time,
// it excludes time the machine gave to other tenants.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, os.NewSyscallError("getrusage", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
