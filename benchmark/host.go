package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the machine a set of results was measured on.
type hostInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	CPU        string  `json:"cpu_model"`
	LLCBytes   int64   `json:"llc_bytes"` // 0 when not readable
	Load1      float64 `json:"load1_at_start"`
}

func readHost() hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		LLCBytes:   llcBytes(),
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if blob, err := os.ReadFile("/proc/loadavg"); err == nil {
		if fields := strings.Fields(string(blob)); len(fields) > 0 {
			h.Load1, _ = strconv.ParseFloat(fields[0], 64)
		}
	}
	return h
}

// llcBytes is the size of cpu0's highest-level cache, 0 when sysfs does not
// say.
func llcBytes() int64 {
	var best int64
	for i := 0; i < 8; i++ {
		blob, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(blob))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n*mult > best {
			best = n * mult
		}
	}
	return best
}

func (h hostInfo) print() {
	llc := "unreadable"
	if h.LLCBytes > 0 {
		llc = fmt.Sprintf("%d B", h.LLCBytes)
	}
	fmt.Printf("host: nproc %d, GOMAXPROCS %d, %s, cpu %q, LLC %s, load1 %.2f\n",
		h.NProc, h.GOMAXPROCS, h.Go, h.CPU, llc, h.Load1)
	if h.Load1 > 0.5 {
		fmt.Printf("warning: 1-minute load average %.2f is above 0.5; timings will be noisy\n", h.Load1)
	}
}
