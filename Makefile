# Artifact-style entry points, mirroring the GPM artifact's Makefile.
CARGO ?= cargo
RUN := $(CARGO) run --release -p gpm-bench --bin

.PHONY: all test campaign campaign-quick serve serve-quick \
        serve-scenarios analytics analytics-quick \
        figure_1 figure_3 figure_9 \
        figure_10 figure_11a figure_11b figure_12 table_4 table_5 checkpoint_frequency \
        sensitivity ycsb future_platforms

all: figure_1 figure_3 figure_9 figure_10 figure_11a figure_11b figure_12 table_4 table_5 \
     checkpoint_frequency

test:
	$(CARGO) test --workspace

# Crash-consistency campaign across all GPMbench workloads; writes
# BENCH_campaign.json. `campaign-quick` bounds the crash points per workload.
campaign:
	$(RUN) campaign
campaign-quick:
	$(RUN) campaign -- --quick

# gpAnalytics crash-recovery campaign: the behavioral-analytics oracle
# alone, across every crash point and pending-line policy, then the
# double-recovery leg (recovery runs twice back to back, then the
# interrupted batch is resubmitted and must land exactly once).
# `analytics-quick` bounds the crash points.
analytics:
	$(RUN) campaign -- --workload gpAnalytics
	$(RUN) campaign -- --workload gpAnalytics --double-recovery
analytics-quick:
	$(RUN) campaign -- --quick --workload gpAnalytics
	$(RUN) campaign -- --quick --workload gpAnalytics --double-recovery

# Open-loop serving sweep (gpm-serve): offered load x shard count x batch
# policy, plus arrival-shape and fault-drill sections; writes
# BENCH_serve.json. `serve-quick` is the CI smoke matrix (<10 s).
serve:
	$(RUN) serve
serve-quick:
	$(RUN) serve -- --quick

# Scenario gate: every registered serve scenario (replication, failover,
# resharding, and the hostile-traffic quartet) at quick scale, one JSON
# file each, plus the two --inject-bug self-tests that prove the
# consistency oracle catches fabric corruption. Mirrors CI's
# serve-scenarios matrix on one machine.
serve-scenarios:
	set -e; for s in $$($(RUN) serve -- --list-scenarios); do \
	  $(RUN) serve -- --quick --scenario $$s --out scenario_$$s.json; \
	done
	$(RUN) serve -- --quick --scenario replication --inject-bug --out scenario_replication_bug.json
	$(RUN) serve -- --quick --scenario resharding --inject-bug --out scenario_resharding_bug.json

figure_1:
	$(RUN) fig1a
	$(RUN) fig1b
figure_3:
	$(RUN) fig3
figure_9:
	$(RUN) fig9
figure_10:
	$(RUN) fig10
figure_11a:
	$(RUN) fig11a
figure_11b:
	$(RUN) fig11b
figure_12:
	$(RUN) fig12
table_4:
	$(RUN) table4
table_5:
	$(RUN) table5
checkpoint_frequency:
	$(RUN) checkpoint_frequency
sensitivity:
	$(RUN) sensitivity
ycsb:
	$(RUN) ycsb
future_platforms:
	$(RUN) future_platforms
