package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outDir holds everything a run leaves behind: the bftsimd binary, the
// daemons' scratch directories and the span files. It is git-ignored.
const outDir = "out"

// live is every child process and scratch directory the harness owns;
// cleanup tears them down on every way out of main, signals included.
var live struct {
	sync.Mutex
	procs map[*exec.Cmd]bool
	dirs  map[string]bool
}

// startChild starts cmd and registers it for cleanup.
func startChild(cmd *exec.Cmd) error {
	live.Lock()
	defer live.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	if live.procs == nil {
		live.procs = map[*exec.Cmd]bool{}
	}
	live.procs[cmd] = true
	return nil
}

// waitChild reaps a child that is exiting on its own.
func waitChild(cmd *exec.Cmd) error {
	err := cmd.Wait()
	live.Lock()
	delete(live.procs, cmd)
	live.Unlock()
	return err
}

// stopChild asks a child to exit with SIGTERM (bftsimd drains on it),
// kills it if it has not gone within the grace period, and reaps it.
func stopChild(cmd *exec.Cmd) {
	live.Lock()
	owned := live.procs[cmd]
	delete(live.procs, cmd)
	live.Unlock()
	if !owned {
		return
	}
	_ = cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		_ = cmd.Process.Kill()
		<-done
	}
}

// scratchDir makes a fresh directory under outDir, removed by cleanup.
func scratchDir(pattern string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(outDir, pattern)
	if err != nil {
		return "", err
	}
	live.Lock()
	if live.dirs == nil {
		live.dirs = map[string]bool{}
	}
	live.dirs[dir] = true
	live.Unlock()
	return dir, nil
}

func removeScratch(dir string) {
	live.Lock()
	delete(live.dirs, dir)
	live.Unlock()
	_ = os.RemoveAll(dir)
}

// cleanup stops every child still running and removes every scratch
// directory still present.
func cleanup() {
	live.Lock()
	var procs []*exec.Cmd
	for cmd := range live.procs {
		procs = append(procs, cmd)
	}
	var dirs []string
	for dir := range live.dirs {
		dirs = append(dirs, dir)
	}
	live.Unlock()
	for _, cmd := range procs {
		stopChild(cmd)
	}
	for _, dir := range dirs {
		removeScratch(dir)
	}
}

// peakRSSMB reads a process's high-water resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuSeconds reads a process's user+system CPU time. /proc reports it in
// clock ticks, which are 1/100 s on every Linux ABI.
func cpuSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is the first,
	// utime and stime the 12th and 13th.
	i := strings.LastIndexByte(string(data), ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad CPU fields in /proc/%d/stat", pid)
	}
	return (utime + stime) / 100, nil
}
