package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"misusedetect/internal/core"
)

// fprBudget is the false-positive budget the alarm floors are calibrated
// to, the operating point the repository's evaluation uses.
const fprBudget = 0.05

// model is a trained, calibrated and saved detector, loaded back from
// its directory the way a server loads it.
type model struct {
	dir    string
	det    *core.Detector
	mcfg   core.MonitorConfig
	digest string // SHA-256 of manifest.json, which lists every file's checksum
}

// The LSTM backend at the paper's width. A set-up can afford about two
// epochs; one optimizer step per session (batch size 1) is what lets so
// short a training learn the routines well enough for its calibrated
// floors to separate them from misuse.
const (
	lstmHidden = 256
	lstmEpochs = 2
	lstmBatch  = 1
)

// buildModel trains a detector of the given backend on the generated
// inputs, calibrates per-cluster floors to the FPR budget, saves model
// and thresholds.json to dir, and loads them back through the verified
// loader.
func buildModel(in *inputs, backend string, seed int64, dir string) (*model, error) {
	cfg := core.ScaledConfig(in.vocab.Size(), len(in.train), lstmHidden, lstmEpochs, seed)
	cfg.Backend = backend
	cfg.LM.Trainer.LearningRate = 0.01
	cfg.LM.Trainer.BatchSize = lstmBatch
	cfg.LM.Network.DropoutRate = 0
	det, err := core.TrainDetector(cfg, in.vocab, in.train, nil)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	mcfg, err := det.CalibrateMonitorPerCluster(core.DefaultMonitorConfig(), in.holdout, fprBudget, 0)
	if err != nil {
		return nil, fmt.Errorf("calibrate: %w", err)
	}
	if err := det.Save(dir); err != nil {
		return nil, err
	}
	if err := core.SaveMonitorConfig(filepath.Join(dir, core.ThresholdsFile), mcfg); err != nil {
		return nil, err
	}
	loaded, lcfg, err := core.LoadGeneration(dir)
	if err != nil {
		return nil, err
	}
	if lcfg == nil {
		return nil, fmt.Errorf("load %s: thresholds missing", dir)
	}
	man, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(man)
	return &model{dir: dir, det: loaded, mcfg: *lcfg, digest: hex.EncodeToString(sum[:])}, nil
}

// daemonIdle is the daemon's session idle expiry. The wire stream's
// sessions are short and each gets an event every few milliseconds, so
// a session idle this long has ended; evicting it keeps the daemon's
// resident set at a few seconds' worth of sessions however long a run
// lasts.
const daemonIdle = time.Second

// daemon is a running misused process serving one model directory.
type daemon struct {
	cmd      *exec.Cmd
	conn     net.Conn
	r        *bufio.Reader
	errPath  string
	readyRSS int64 // bytes resident once the daemon answered status
	procs    int   // GOMAXPROCS the daemon runs with
}

// startDaemon launches misused on a free loopback port with the model's
// calibrated thresholds, connects, and returns once the daemon has
// answered {"cmd":"status"} on that connection. The daemon's stdout and
// stderr go to files, so no goroutine copies them.
func startDaemon(bin string, m *model, shards int, work string) (*daemon, error) {
	outPath := filepath.Join(work, "misused.out")
	errPath := filepath.Join(work, "misused.err")
	stdout, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	defer stdout.Close()
	stderr, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	procs := runtime.GOMAXPROCS(0)
	cmd := exec.Command(bin,
		"-model", m.dir,
		"-monitor", filepath.Join(m.dir, core.ThresholdsFile),
		"-shards", strconv.Itoa(shards),
		"-listen", "127.0.0.1:0",
		"-idle", daemonIdle.String(),
	)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs), "GODEBUG=gctrace=1")
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, errPath: errPath, procs: procs}
	addr, err := waitListening(outPath, cmd, 30*time.Second)
	if err != nil {
		d.stop()
		return nil, err
	}
	if d.conn, err = net.Dial("tcp", addr); err != nil {
		d.stop()
		return nil, err
	}
	d.r = bufio.NewReaderSize(d.conn, 1<<16)
	if _, err := d.conn.Write([]byte("{\"cmd\":\"status\"}\n")); err != nil {
		d.stop()
		return nil, err
	}
	line, err := d.r.ReadSlice('\n')
	if err != nil || !strings.Contains(string(line), `"status"`) {
		d.stop()
		return nil, fmt.Errorf("daemon status: %q: %v", line, err)
	}
	if d.readyRSS, err = procStatusBytes(cmd.Process.Pid, "VmRSS:"); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitListening polls the daemon's stdout for its listening line.
func waitListening(path string, cmd *exec.Cmd, timeout time.Duration) (string, error) {
	const marker = "misused listening on "
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", err
		}
		if i := strings.Index(string(data), marker); i >= 0 {
			rest := string(data[i+len(marker):])
			if j := strings.IndexByte(rest, ' '); j > 0 {
				return rest[:j], nil
			}
		}
		var ws syscall.WaitStatus
		if pid, _ := syscall.Wait4(cmd.Process.Pid, &ws, syscall.WNOHANG, nil); pid == cmd.Process.Pid {
			return "", fmt.Errorf("misused exited before listening: %s", data)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return "", fmt.Errorf("misused did not listen within %v", timeout)
}

// stop closes the connection, asks the daemon to exit, and waits for it.
func (d *daemon) stop() {
	if d.conn != nil {
		d.conn.Close()
	}
	if d.cmd.ProcessState != nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := time.AfterFunc(10*time.Second, func() { _ = d.cmd.Process.Kill() })
	_ = d.cmd.Wait() // the exit status of a stopped daemon carries nothing
	done.Stop()
}

// procStatusBytes reads one kB-valued field of /proc/<pid>/status.
func procStatusBytes(pid int, field string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, field) {
			f := strings.Fields(line[len(field):])
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, field)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// procCPU returns the user plus system CPU time of a process.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short line", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad times", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// selfCPU returns the user plus system CPU time of this process.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCount counts the collections a gctrace log has reported so far.
func gcCount(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "gc ") {
			n++
		}
	}
	return n, nil
}
