package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// On the shared reference box the same binary runs up to 40 % slower for
// minutes at a time when neighbours on the host press on the last-level
// cache and the memory bus: an arithmetic-only loop keeps its speed to 3 %
// while a random walk over 64 MB slows by up to 1.47×, and every workload
// here follows the walk, not the arithmetic. Unscaled, op_s_p50 spread by
// up to 19 % of its median over ten back-to-back runs and the medians of
// consecutive sets of ten differed by up to 15 %, which no bound of at
// most a quarter can resolve. So every run times that walk beside its ops,
// about once a second between ops, and reports its time metrics scaled to
// the speed the walk has on the quiet box. That brought the worst spread
// to 11 % and the worst difference between sets to 8 % (README.md has the
// numbers and what is left over).
//
// The walk runs in a child process of its own, so that its 64 MB never
// count towards the peak resident set the run reports for itself.

// kernelNominal is what one pass of the calibration kernel takes on the
// reference box when the host is quiet. It is the unit the scaled times
// are expressed in: a time metric reads what the op would have taken on
// that box, quiet.
const kernelNominal = 0.0045 // seconds

// calibrateEnv makes the process a calibration child instead of a
// benchmark (an environment variable, not a flag, so that the test binary
// can play the child too).
const calibrateEnv = "BENCH_CALIBRATE"

const (
	kernelWords = 16 << 20 // 64 MB of uint32
	kernelSteps = 600_000
)

// calibrateLoop is the child: for every line on stdin, run the kernel
// three times and print the fastest pass in seconds. The fastest of three
// drops the pass that a scheduling hiccup lengthened; the contention the
// factor is after lasts far longer than three passes.
func calibrateLoop() {
	mem := make([]uint32, kernelWords)
	for i := range mem {
		mem[i] = uint32(i)
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		best := 0.0
		for pass := 0; pass < 3; pass++ {
			start := time.Now()
			x, sum := uint32(12345), uint32(0)
			for i := 0; i < kernelSteps; i++ {
				x = x*1664525 + 1013904223
				sum += mem[x>>8]
			}
			mem[0] = sum // keeps the loads live
			if d := time.Since(start).Seconds(); pass == 0 || d < best {
				best = d
			}
		}
		fmt.Println(strconv.FormatFloat(best, 'g', -1, 64))
	}
}

// calibrator is the parent's handle on the child.
type calibrator struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Reader
	samples []float64
	last    time.Time
}

func startCalibrator() (*calibrator, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &calibrator{cmd: exec.Command(exe)}
	c.cmd.Env = append(os.Environ(), calibrateEnv+"=1")
	c.cmd.Stderr = os.Stderr
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(stdout)
	if err := startChild(c.cmd); err != nil {
		return nil, err
	}
	// The first sample pays for the child's start and page faults; the
	// second is the first that counts, so that no run is without one.
	for i := 0; i < 2; i++ {
		c.samples = c.samples[:0]
		if err := c.sample(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// sample times the kernel once, while the caller waits.
func (c *calibrator) sample() error {
	if _, err := io.WriteString(c.in, "\n"); err != nil {
		return fmt.Errorf("calibration child: %w", err)
	}
	line, err := c.out.ReadString('\n')
	if err != nil {
		return fmt.Errorf("calibration child: %w", err)
	}
	d, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		return fmt.Errorf("calibration child: %w", err)
	}
	c.samples = append(c.samples, d)
	c.last = time.Now()
	return nil
}

// sampleIfDue samples when the last sample is more than a second old.
func (c *calibrator) sampleIfDue() error {
	if time.Since(c.last) < time.Second {
		return nil
	}
	return c.sample()
}

// factor is what a measured time is multiplied by: the kernel's nominal
// time over its median time in this run.
func (c *calibrator) factor() float64 {
	return kernelNominal / median(c.samples)
}

// stop ends the child.
func (c *calibrator) stop() {
	c.in.Close() // the child's loop ends at end of input
	stopChild(c.cmd)
}

// scaleTimes applies the run's calibration factor to its time metrics
// and notes the factor and the unscaled medians beside them.
func (c *calibrator) scaleTimes(rep *report) {
	f := c.factor()
	rep.note("times scaled by %.4f: the calibration kernel took %.6g s (median of %d samples), nominally %g s; unscaled setup_s %.6g, op_s_p50 %.6g, points_per_s %.6g",
		f, median(c.samples), len(c.samples), kernelNominal,
		rep.values["setup_s"], rep.values["op_s_p50"], rep.values["points_per_s"])
	rep.set("setup_s", rep.values["setup_s"]*f)
	rep.set("op_s_p50", rep.values["op_s_p50"]*f)
	rep.set("points_per_s", rep.values["points_per_s"]/f)
}
