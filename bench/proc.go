package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Host accounting: what the process holding the index cost the machine, read
// from /proc/<pid> by whichever process drives it. The same helpers serve the
// chameleon-serve child and the re-exec'd embedded worker.

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux ABI.
const clockTick = 100

type procUsage struct {
	cpuSeconds float64 // utime+stime
	writeBytes uint64  // bytes this process caused to be sent to storage (sockets excluded)
	hwmBytes   uint64  // peak resident set
	rssBytes   uint64  // resident set now
}

func readProc(pid int) (procUsage, error) {
	var u procUsage
	dir := fmt.Sprintf("/proc/%d/", pid)

	stat, err := os.ReadFile(dir + "stat")
	if err != nil {
		return u, err
	}
	// The command name (field 2) may hold spaces; fields 3.. follow its ')'.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("%sstat: %d fields after the command name", dir, len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("%sstat: bad utime/stime %q %q", dir, f[11], f[12])
	}
	u.cpuSeconds = float64(utime+stime) / clockTick

	mem, err := procFields(dir+"status", "VmHWM:", "VmRSS:")
	if err != nil {
		return u, err
	}
	u.hwmBytes, u.rssBytes = mem[0]<<10, mem[1]<<10 // reported in kB
	io, err := procFields(dir+"io", "write_bytes:")
	if err != nil {
		return u, err
	}
	u.writeBytes = io[0]
	return u, nil
}

// procFields returns, for each label, the first number after it in a
// "label value ..." file.
func procFields(path string, labels ...string) ([]uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(labels))
next:
	for i, label := range labels {
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, label); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if out[i], err = strconv.ParseUint(f[0], 10, 64); err != nil {
						return nil, fmt.Errorf("%s: %s %w", path, label, err)
					}
					continue next
				}
			}
		}
		return nil, fmt.Errorf("%s: no %q line", path, label)
	}
	return out, nil
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
