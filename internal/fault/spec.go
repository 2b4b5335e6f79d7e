package fault

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseSpec builds a Plan from the comma-separated CLI mini-language used by
// dssim -fault:
//
//	seed=42               PRNG seed (default 0)
//	drop=bus:P            drop each broadcast with probability P
//	delay=bus:P[:C]       delay each broadcast C cycles with probability P (C default 8)
//	dup=bus:P             duplicate each broadcast with probability P
//	stale=reg:P[:C]       stale register read for C cycles with probability P (C default 4)
//	torn=pc:P[:order[:W]] torn <owner,step> update with probability P;
//	                      order is step-first (default) or owner-first, W the
//	                      split window in cycles (default 1)
//	mem=mod:P[:C]         delay a module access C cycles with probability P (C default 4)
//	slow=procN:F          multiply proc N's compute by factor F
//	halt=procN:C          halt proc N at cycle C
//
// Example: 'drop=bus:0.01,delay=bus:0.05:6,seed=42'.
func ParseSpec(spec string) (Plan, error) {
	var p Plan
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		key, val, ok := strings.Cut(item, "=")
		if !ok {
			return Plan{}, fmt.Errorf("fault: %q is not key=value", item)
		}
		parts := strings.Split(val, ":")
		if err := p.applySpecItem(key, parts); err != nil {
			return Plan{}, err
		}
	}
	if err := p.Check(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

func (p *Plan) applySpecItem(key string, parts []string) error {
	switch key {
	case "seed":
		return specInt(key, parts, 1, &p.Seed)
	case "drop":
		return specProb(key, "bus", parts, &p.DropProb, nil)
	case "delay":
		return specProb(key, "bus", parts, &p.DelayProb, &p.DelayCycles)
	case "dup":
		return specProb(key, "bus", parts, &p.DupProb, nil)
	case "stale":
		return specProb(key, "reg", parts, &p.StaleProb, &p.StaleCycles)
	case "torn":
		if len(parts) < 2 || len(parts) > 4 || parts[0] != "pc" {
			return fmt.Errorf("fault: torn wants pc:P[:order[:window]] (got %q)", strings.Join(parts, ":"))
		}
		prob, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return fmt.Errorf("fault: torn probability %q: %v", parts[1], err)
		}
		p.TornProb = prob
		if len(parts) >= 3 {
			p.TornOrder = parts[2]
		}
		if len(parts) == 4 {
			w, err := strconv.ParseInt(parts[3], 10, 64)
			if err != nil {
				return fmt.Errorf("fault: torn window %q: %v", parts[3], err)
			}
			p.TornWindow = w
		}
		return nil
	case "mem":
		return specProb(key, "mod", parts, &p.ModuleDelayProb, &p.ModuleDelayCycles)
	case "slow":
		return specProcPair(key, parts, &p.SlowProc, &p.SlowFactor)
	case "halt":
		return specProcPair(key, parts, &p.HaltProc, &p.HaltAtCycle)
	default:
		return fmt.Errorf("fault: unknown spec key %q", key)
	}
}

func specInt(key string, parts []string, n int, dst *int64) error {
	if len(parts) != n {
		return fmt.Errorf("fault: %s wants one value", key)
	}
	v, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return fmt.Errorf("fault: %s value %q: %v", key, parts[0], err)
	}
	*dst = v
	return nil
}

// specProb parses target:P[:cycles] where target names the fault domain
// (documentation in the spec itself; cycles optional when dstCycles != nil).
func specProb(key, target string, parts []string, dstProb *float64, dstCycles *int64) error {
	maxParts := 2
	if dstCycles != nil {
		maxParts = 3
	}
	if len(parts) < 2 || len(parts) > maxParts || parts[0] != target {
		return fmt.Errorf("fault: %s wants %s:P%s (got %q)", key, target,
			map[bool]string{true: "[:cycles]", false: ""}[dstCycles != nil], strings.Join(parts, ":"))
	}
	prob, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return fmt.Errorf("fault: %s probability %q: %v", key, parts[1], err)
	}
	*dstProb = prob
	if len(parts) == 3 {
		c, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return fmt.Errorf("fault: %s cycles %q: %v", key, parts[2], err)
		}
		*dstCycles = c
	}
	return nil
}

// specProcPair parses procN:V.
func specProcPair(key string, parts []string, dstProc *int, dstVal *int64) error {
	if len(parts) != 2 || !strings.HasPrefix(parts[0], "proc") {
		return fmt.Errorf("fault: %s wants procN:value (got %q)", key, strings.Join(parts, ":"))
	}
	id, err := strconv.Atoi(strings.TrimPrefix(parts[0], "proc"))
	if err != nil {
		return fmt.Errorf("fault: %s processor %q: %v", key, parts[0], err)
	}
	v, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil {
		return fmt.Errorf("fault: %s value %q: %v", key, parts[1], err)
	}
	*dstProc, *dstVal = id, v
	return nil
}
