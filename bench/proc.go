package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sandbox owns everything a run leaves outside the harness's own
// memory: child processes and a scratch directory. cleanup is the one
// place they are destroyed, and it runs on every exit path — deferred
// from run (normal return and panic) and from the signal handler
// (Ctrl-C). Children additionally carry a parent-death signal, so even
// a harness killed with SIGKILL leaves none behind.
type sandbox struct {
	dir string

	mu    sync.Mutex
	procs []*proc
}

// newSandbox creates a fresh scratch directory under parent.
func newSandbox(parent string) (*sandbox, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return nil, err
	}
	return &sandbox{dir: dir}, nil
}

// cleanup kills every child still running, waits for each, and removes
// the scratch directory. Safe to call more than once.
func (sb *sandbox) cleanup() {
	sb.mu.Lock()
	procs := sb.procs
	sb.procs = nil
	sb.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	os.RemoveAll(sb.dir)
}

var (
	servingRe = regexp.MustCompile(`serving on (\S+)`)
	metricsRe = regexp.MustCompile(`metrics on http://(\S+)/metrics`)
)

// proc is one child process. A single goroutine drains its stderr —
// picking out the two address announcements, keeping a short tail for
// error reports — then reaps it and closes done.
type proc struct {
	name     string
	cmd      *exec.Cmd
	addrc    chan string // the "serving on" address, once
	metricsc chan string // the "metrics on" address, once
	done     chan struct{}
	waitErr  error // valid after done

	mu   sync.Mutex
	tail []string
}

// start launches a child in its own process group.
func (sb *sandbox) start(name, path string, args ...string) (*proc, error) {
	cmd := exec.Command(path, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{
		name:     name,
		cmd:      cmd,
		addrc:    make(chan string, 1),
		metricsc: make(chan string, 1),
		done:     make(chan struct{}),
	}
	sb.mu.Lock()
	sb.procs = append(sb.procs, p)
	sb.mu.Unlock()
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			// Each channel holds the first announcement; the select in
			// offer drops any later one instead of blocking the drain.
			if m := metricsRe.FindStringSubmatch(line); m != nil {
				offer(p.metricsc, m[1])
			}
			if m := servingRe.FindStringSubmatch(line); m != nil {
				offer(p.addrc, m[1])
			}
			p.mu.Lock()
			if len(p.tail) == 20 {
				p.tail = p.tail[1:]
			}
			p.tail = append(p.tail, line)
			p.mu.Unlock()
		}
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func offer(c chan<- string, v string) {
	select {
	case c <- v:
	default:
	}
}

func (p *proc) stderrTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// await returns the first address delivered on c, or an error if the
// process exits or the timeout passes first.
func (p *proc) await(c <-chan string, timeout time.Duration) (string, error) {
	select {
	case addr := <-c:
		return addr, nil
	case <-p.done:
		return "", fmt.Errorf("%s exited before announcing its address: %v\n%s", p.name, p.waitErr, p.stderrTail())
	case <-time.After(timeout):
		return "", fmt.Errorf("%s announced no address within %v\n%s", p.name, timeout, p.stderrTail())
	}
}

// exited reports whether the process has already ended.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// term asks the process to drain (SIGTERM) and requires a clean exit
// within timeout; a process that overstays is killed and reported.
func (p *proc) term(timeout time.Duration) error {
	if p.exited() {
		return fmt.Errorf("%s had already exited: %v\n%s", p.name, p.waitErr, p.stderrTail())
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		if p.waitErr != nil {
			return fmt.Errorf("%s did not drain cleanly: %v\n%s", p.name, p.waitErr, p.stderrTail())
		}
		return nil
	case <-time.After(timeout):
		p.kill()
		return fmt.Errorf("%s did not exit within %v of SIGTERM", p.name, timeout)
	}
}

// kill destroys the process group, unless the process was already
// reaped (its pid may be someone else's by now), and waits for the
// reaper.
func (p *proc) kill() {
	if !p.exited() {
		syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	}
	<-p.done
}
