package main

import (
	"bufio"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDirName is the checkout-relative directory that receives the
// server binary and every journal; the root .gitignore names it.
const buildDirName = ".bench_build"

// moduleRoot walks up from the working directory to the directory
// holding go.mod: `go run ./benchmark` starts at the root, `go test`
// starts inside benchmark/.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/acdserve into the build directory (which
// run has created) and returns the binary's path.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDirName, "acdserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/acdserve")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/acdserve: %v\n%s", err, msg)
	}
	return bin, nil
}

// child is one acdserve process under test.
type child struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
	err  error // Wait's result, valid after done closes
}

// children tracks every live child so an early exit can still reap
// them all.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

// startServer launches bin with args on an ephemeral loopback port and
// returns once GET /healthz answers 200. boot is the time from exec to
// that first 200.
func startServer(bin string, args ...string) (c *child, boot time.Duration, err error) {
	start := time.Now()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	c = &child{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = make(map[*child]struct{})
	}
	children.live[c] = struct{}{}
	children.Unlock()

	// One goroutine owns stderr and Wait: it hands the listen address
	// over once, keeps draining so the child never blocks on a full
	// pipe, and closes done when the process has been reaped.
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		var tail []string
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				rest := line[i+len("listening on http://"):]
				if sp := strings.IndexByte(rest, ' '); sp >= 0 {
					rest = rest[:sp]
				}
				select {
				case addrCh <- rest:
				default:
				}
			}
			if tail = append(tail, line); len(tail) > 20 {
				tail = tail[1:]
			}
		}
		c.err = cmd.Wait()
		if c.err != nil {
			c.err = fmt.Errorf("%w; stderr tail:\n%s", c.err, strings.Join(tail, "\n"))
		}
		children.Lock()
		delete(children.live, c)
		children.Unlock()
		close(c.done)
	}()

	select {
	case addr := <-addrCh:
		c.base = "http://" + addr
	case <-c.done:
		return nil, 0, fmt.Errorf("acdserve exited before listening: %v", c.err)
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, 0, errors.New("acdserve did not listen within 60s")
	}
	for {
		resp, err := http.Get(c.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		select {
		case <-c.done:
			return nil, 0, fmt.Errorf("acdserve exited before healthy: %v", c.err)
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 120*time.Second {
			c.kill()
			return nil, 0, errors.New("acdserve not healthy within 120s")
		}
	}
}

// kill sends SIGKILL and waits until the process has been reaped. It
// is idempotent.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already-exited is fine: done still closes
	<-c.done
}

// killAllChildren reaps every child still alive; main defers it so no
// exit path leaks a server.
func killAllChildren() {
	children.Lock()
	var live []*child
	for c := range children.live {
		live = append(live, c)
	}
	children.Unlock()
	for _, c := range live {
		c.kill()
	}
}

// liveChildren reports how many children have not been reaped.
func liveChildren() int {
	children.Lock()
	defer children.Unlock()
	return len(children.live)
}

// clockTick is the kernel's USER_HZ; /proc reports CPU time in these
// units and Linux fixes it at 100 on every supported architecture.
const clockTick = 100

// cpuSeconds returns the user+system CPU the child has consumed so
// far, from /proc/PID/stat.
func (c *child) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat: %q", s)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", s)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparsable /proc stat times: %q %q", f[11], f[12])
	}
	return (utime + stime) / clockTick, nil
}

// peakRSSMB returns the child's high-water resident set (VmHWM) in MiB.
func (c *child) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPUSeconds returns the benchmark process's own user+system CPU.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
