/**
 * @file
 * Tests for the instruction-table subsystem (§V): the plan/decode
 * split of the characterizer (one throughput spec per variant, spec
 * keys pinned), the campaign-backed full-catalog builder (graceful
 * per-variant failures), table JSON/CSV round-trips, and diffing.
 */

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>

#include "uops/table.hh"
#include "x86/assembler.hh"

namespace nb::uops
{
namespace
{

Session
skylakeSession(Engine &engine)
{
    return engine.session({});
}

// -------------------------------------------------------------- plan --

TEST(Plan, CoversTheWholeCatalog)
{
    Engine engine;
    Session session = skylakeSession(engine);
    Characterizer tool(session);
    auto plan = tool.plan();

    EXPECT_EQ(plan.rows.size(), plan.catalog.size());
    EXPECT_GE(plan.catalog.size(), 90u);
    EXPECT_TRUE(plan.hasFixedCounters);
    EXPECT_GT(plan.numPorts, 0u);

    // Every planned spec folds into a valid row; rows are pre-filled
    // by planning.
    for (const auto &planned : plan.specs) {
        ASSERT_LT(planned.variant, plan.rows.size());
        ASSERT_FALSE(planned.spec.code.empty());
    }
    for (const auto &row : plan.rows) {
        EXPECT_FALSE(row.signature.empty());
        EXPECT_FALSE(row.asmText.empty());
    }
}

TEST(Plan, OneThroughputSpecPerVariantReadsEveryPort)
{
    // Throughput, µops and port usage come from one benchmark: each
    // measurable variant has exactly one throughput spec, and it
    // selects every port event plus the µop event.
    Engine engine;
    Session session = skylakeSession(engine);
    Characterizer tool(session);
    auto plan = tool.plan();

    std::vector<std::string> expected;
    for (unsigned p = 0; p < plan.numPorts; ++p)
        expected.push_back("UOPS_DISPATCHED_PORT.PORT_" + std::to_string(p));
    expected.push_back("UOPS_EXECUTED.THREAD");

    std::vector<unsigned> tput_specs(plan.rows.size(), 0);
    for (const auto &planned : plan.specs) {
        if (planned.role != PlannedSpec::Role::Throughput)
            continue;
        ++tput_specs[planned.variant];
        std::vector<std::string> names;
        for (const auto &event : planned.spec.config.events())
            names.push_back(event.displayName);
        EXPECT_EQ(names, expected) << plan.rows[planned.variant].asmText;
    }
    for (std::size_t v = 0; v < plan.rows.size(); ++v)
        EXPECT_EQ(tput_specs[v], 1u) << plan.rows[v].asmText;
}

TEST(Plan, SkylakeSpecKeysArePinned)
{
    // Checkpoint resume and the golden tables both rely on the planned
    // specs staying the same: fold every spec's key, in plan order.
    Engine engine;
    Session session = skylakeSession(engine);
    std::uint64_t fold = 0xcbf29ce484222325ULL;
    for (const auto &planned : Characterizer(session).plan().specs)
        fold = (fold ^ specHash(planned.spec)) * 0x100000001b3ULL;
    EXPECT_EQ(fold, 0x45d0f39201d21325ULL);
}

TEST(Plan, KernelOnlyVariantsGetNoSpecsInUserMode)
{
    Engine engine;
    SessionOptions opt;
    opt.mode = core::Mode::User;
    Session session = engine.session(opt);
    Characterizer tool(session);
    auto plan = tool.plan(
        std::vector<x86::Instruction>{x86::assemble("wbinvd")[0]});
    ASSERT_EQ(plan.rows.size(), 1u);
    EXPECT_TRUE(plan.rows[0].requiresKernelMode);
    EXPECT_TRUE(plan.specs.empty());
}

// ----------------------------------------------------------- builder --

TEST(Builder, FullCatalogRunsThroughTheCampaign)
{
    Engine engine;
    TableBuildOptions opt;
    opt.jobs = 2;
    auto build = buildInstructionTable(engine, opt);

    EXPECT_GE(build.table.rows.size(), 90u);
    EXPECT_EQ(build.table.uarch, "Skylake");
    EXPECT_EQ(build.table.mode, "kernel");
    // One throughput spec per variant: the Skylake plan holds 190
    // specs, and only one of them repeats another.
    EXPECT_EQ(build.report.totalSpecs, 190u);
    EXPECT_EQ(build.report.uniqueSpecs, 189u);
    EXPECT_EQ(build.report.jobs, 2u);
    EXPECT_EQ(build.report.errorCount(), 0u);
    EXPECT_EQ(build.table.errorCount(), 0u);

    // Spot-check ground truth through the whole campaign pipeline.
    const VariantResult *add = build.table.find("ADD_R64_R64");
    ASSERT_NE(add, nullptr);
    ASSERT_TRUE(add->latency.has_value());
    EXPECT_NEAR(*add->latency, 1.0, 0.1);
    EXPECT_NEAR(add->throughput, 0.25, 0.08);

    const VariantResult *load = build.table.find("MOV_R64_M64");
    ASSERT_NE(load, nullptr);
    ASSERT_TRUE(load->latency.has_value());
    EXPECT_NEAR(*load->latency, 4.0, 0.2);

    for (const auto &row : build.table.rows) {
        EXPECT_TRUE(row.ok()) << row.asmText;
        EXPECT_FALSE(row.requiresKernelMode) << row.asmText;
        EXPECT_GT(row.throughput, 0.0) << row.asmText;
    }
}

TEST(Builder, RepeatedCampaignsAreIdentical)
{
    // Same layout, fresh machines: bit-identical tables.
    TableBuildOptions opt;
    opt.jobs = 2;
    Engine engine;
    auto first = buildInstructionTable(engine, opt);
    engine.clearPool();
    auto second = buildInstructionTable(engine, opt);
    EXPECT_TRUE(diffTables(first.table, second.table,
                           /*tolerance=*/0.0)
                    .empty());
}

TEST(Builder, FailingVariantIsMarkedErroredNotFatal)
{
    // Sabotage one variant's throughput spec and run the rest of the
    // catalog: the catalog must complete with exactly that variant
    // errored.
    Engine engine;
    Session session = skylakeSession(engine);
    Characterizer tool(session);
    auto plan = tool.plan();

    std::size_t sabotaged = plan.rows.size();
    for (auto &planned : plan.specs) {
        if (plan.rows[planned.variant].signature == "NOP" &&
            planned.role != PlannedSpec::Role::Latency) {
            planned.spec.nMeasurements = 0; // InvalidSpec at runtime
            sabotaged = planned.variant;
        }
    }
    ASSERT_LT(sabotaged, plan.rows.size());

    CampaignOptions opt;
    opt.jobs = 2;
    auto campaign =
        engine.runCampaign(Characterizer::planSpecs(plan), opt);
    auto rows = Characterizer::decode(plan, campaign.outcomes);

    ASSERT_EQ(rows.size(), plan.rows.size());
    for (std::size_t v = 0; v < rows.size(); ++v) {
        if (v == sabotaged) {
            EXPECT_FALSE(rows[v].ok());
            EXPECT_NE(rows[v].error.find("invalid-spec"),
                      std::string::npos)
                << rows[v].error;
        } else {
            EXPECT_TRUE(rows[v].ok()) << rows[v].asmText;
        }
    }

    // The errored row renders as an error, not as numbers.
    EXPECT_NE(rows[sabotaged].tableRow().find("error"),
              std::string::npos);
}

TEST(Builder, FailedLatencyChainDowngradesToNullopt)
{
    Engine engine;
    Session session = skylakeSession(engine);
    Characterizer tool(session);
    auto plan = tool.plan(
        std::vector<x86::Instruction>{x86::assemble("add RAX, RBX")[0]});
    for (auto &planned : plan.specs) {
        if (planned.role == PlannedSpec::Role::Latency)
            planned.spec.unrollCount = 0; // InvalidSpec at runtime
    }
    CampaignOptions opt;
    auto campaign =
        engine.runCampaign(Characterizer::planSpecs(plan), opt);
    auto rows = Characterizer::decode(plan, campaign.outcomes);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_TRUE(rows[0].ok()); // throughput still measured
    EXPECT_FALSE(rows[0].latency.has_value());
    EXPECT_NEAR(rows[0].throughput, 0.25, 0.08);
}

// ------------------------------------------------------ serialization --

InstructionTable
sampleTable()
{
    InstructionTable table;
    table.uarch = "Skylake";
    table.mode = "kernel";
    VariantResult add;
    add.signature = "ADD_R64_R64";
    add.asmText = "add RAX, RBX";
    add.latency = 1.0;
    add.throughput = 0.25;
    add.uops = 1.0;
    add.portUsage = {{0, 0.25}, {1, 0.25}, {5, 0.245}, {6, 0.26}};
    table.rows.push_back(add);
    VariantResult store;
    store.signature = "MOV_M64_R64";
    store.asmText = "mov [R14], RAX";
    store.latency = std::nullopt;
    store.throughput = 1.0;
    store.uops = 2.0;
    store.portUsage = {{4, 1.0}};
    table.rows.push_back(store);
    VariantResult priv;
    priv.signature = "WBINVD";
    priv.asmText = "wbinvd";
    priv.requiresKernelMode = true;
    table.rows.push_back(priv);
    VariantResult bad;
    bad.signature = "BAD";
    bad.asmText = "bad, \"quoted\"";
    bad.error = "execution-error: it broke,\nbadly";
    table.rows.push_back(bad);
    return table;
}

void
expectTablesEqual(const InstructionTable &a, const InstructionTable &b)
{
    EXPECT_EQ(a.uarch, b.uarch);
    EXPECT_EQ(a.mode, b.mode);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (std::size_t i = 0; i < a.rows.size(); ++i) {
        const auto &x = a.rows[i];
        const auto &y = b.rows[i];
        EXPECT_EQ(x.signature, y.signature);
        EXPECT_EQ(x.asmText, y.asmText);
        EXPECT_EQ(x.latency.has_value(), y.latency.has_value());
        if (x.latency && y.latency) {
            EXPECT_DOUBLE_EQ(*x.latency, *y.latency);
        }
        EXPECT_DOUBLE_EQ(x.throughput, y.throughput);
        EXPECT_DOUBLE_EQ(x.uops, y.uops);
        EXPECT_EQ(x.portUsage, y.portUsage);
        EXPECT_EQ(x.requiresKernelMode, y.requiresKernelMode);
        EXPECT_EQ(x.error, y.error);
    }
}

TEST(TableSerialization, JsonRoundTrip)
{
    auto table = sampleTable();
    expectTablesEqual(table,
                      InstructionTable::fromJson(table.toJson()));
}

TEST(TableSerialization, CsvRoundTrip)
{
    auto table = sampleTable();
    expectTablesEqual(table, InstructionTable::fromCsv(table.toCsv()));
}

TEST(TableSerialization, MeasuredTableRoundTripsExactly)
{
    Engine engine;
    TableBuildOptions opt;
    opt.jobs = 2;
    auto build = buildInstructionTable(engine, opt);
    expectTablesEqual(build.table,
                      InstructionTable::fromJson(build.table.toJson()));
    expectTablesEqual(build.table,
                      InstructionTable::fromCsv(build.table.toCsv()));
}

TEST(TableSerialization, FromJsonRejectsGarbage)
{
    EXPECT_THROW(InstructionTable::fromJson("nope"), FatalError);
    EXPECT_THROW(InstructionTable::fromJson("{\"rows\": ["),
                 FatalError);
    auto table = sampleTable();
    EXPECT_THROW(
        InstructionTable::fromJson(table.toJson() + table.toJson()),
        FatalError);
}

TEST(TableSerialization, FromCsvRejectsMalformedRecords)
{
    EXPECT_THROW(InstructionTable::fromCsv(
                     "# uarch: X\n"
                     "signature,asm,latency,throughput,uops,ports,"
                     "requires_kernel_mode,error\n"
                     "only,two,fields\n"),
                 FatalError);
}

TEST(TableSerialization, FromCsvRequiresTheHeader)
{
    EXPECT_THROW(InstructionTable::fromCsv(""), FatalError);
    EXPECT_THROW(InstructionTable::fromCsv("garbage\n"), FatalError);
    EXPECT_THROW(InstructionTable::fromCsv("# uarch: X\n# mode: kernel\n"),
                 FatalError);
    // A table whose header is wrong is not read as one.
    std::string csv = sampleTable().toCsv();
    std::string renamed = csv;
    renamed.replace(renamed.find("signature,"), 9, "signatur");
    EXPECT_THROW(InstructionTable::fromCsv(renamed), FatalError);
}

TEST(TableSerialization, LoadAutoDetectsFormat)
{
    auto table = sampleTable();
    std::string json_path = testing::TempDir() + "table_ad.json";
    std::string csv_path = testing::TempDir() + "table_ad.csv";
    std::ofstream(json_path) << table.toJson();
    std::ofstream(csv_path) << table.toCsv();
    InstructionTable from_json = InstructionTable::load(json_path);
    InstructionTable from_csv = InstructionTable::load(csv_path);
    std::remove(json_path.c_str());
    std::remove(csv_path.c_str());
    expectTablesEqual(table, from_json);
    expectTablesEqual(table, from_csv);
    EXPECT_EQ(from_json.toJson(), table.toJson());
    EXPECT_EQ(from_csv.toCsv(), table.toCsv());
}

TEST(TableSerialization, LoadRejectsEmptyAndGarbageFiles)
{
    std::string empty_path = testing::TempDir() + "table_empty.txt";
    std::string garbage_path = testing::TempDir() + "table_garbage.txt";
    std::ofstream(empty_path).flush();
    std::ofstream(garbage_path) << "garbage\n";
    EXPECT_THROW(InstructionTable::load(empty_path), FatalError);
    EXPECT_THROW(InstructionTable::load(garbage_path), FatalError);
    std::remove(empty_path.c_str());
    std::remove(garbage_path.c_str());
}

TEST(TableSerialization, FromJsonRequiresTheTableMembers)
{
    // Any JSON object is not a table: toJson() always writes the
    // uarch, the mode and the rows.
    EXPECT_THROW(InstructionTable::fromJson("{\"foo\": 1}"), FatalError);
    EXPECT_THROW(InstructionTable::fromJson("{}"), FatalError);
    EXPECT_THROW(InstructionTable::fromJson(
                     "{\"uarch\": \"Skylake\", \"mode\": \"kernel\"}"),
                 FatalError);
    InstructionTable empty = InstructionTable::fromJson(
        "{\"uarch\": \"Skylake\", \"mode\": \"kernel\", \"rows\": []}");
    EXPECT_TRUE(empty.rows.empty());

    std::string path = testing::TempDir() + "table_object.json";
    std::ofstream(path) << "{\"foo\": 1}\n";
    EXPECT_THROW(InstructionTable::load(path), FatalError);
    std::remove(path.c_str());
}

TEST(TableSerialization, LoadRejectsMissingFile)
{
    EXPECT_THROW(InstructionTable::load("/nonexistent/table.json"),
                 FatalError);
}

// -------------------------------------------------------------- diff --

TEST(TableDiffing, IdenticalTablesMatch)
{
    auto table = sampleTable();
    EXPECT_TRUE(diffTables(table, table).empty());
}

TEST(TableDiffing, ReportsChangedRows)
{
    auto before = sampleTable();
    auto after = sampleTable();
    after.rows[0].latency = 3.0;
    after.rows[0].throughput = 1.0;
    after.rows[1].portUsage = {{4, 0.5}, {7, 0.5}};

    auto diff = diffTables(before, after);
    ASSERT_FALSE(diff.empty());
    bool saw_latency = false;
    bool saw_tput = false;
    bool saw_ports = false;
    for (const auto &entry : diff.entries) {
        if (entry.kind == TableDiffEntry::Kind::LatencyChanged) {
            saw_latency = true;
            EXPECT_EQ(entry.signature, "ADD_R64_R64");
        }
        saw_tput |= entry.kind ==
                    TableDiffEntry::Kind::ThroughputChanged;
        saw_ports |= entry.kind == TableDiffEntry::Kind::PortsChanged;
    }
    EXPECT_TRUE(saw_latency);
    EXPECT_TRUE(saw_tput);
    EXPECT_TRUE(saw_ports);
    EXPECT_NE(diff.format().find("latency 1.00 -> 3.00"),
              std::string::npos)
        << diff.format();
}

TEST(TableDiffing, ReportsAddedRemovedAndStatusRows)
{
    auto before = sampleTable();
    auto after = sampleTable();
    after.rows.erase(after.rows.begin() + 1); // MOV_M64_R64 removed
    VariantResult fresh;
    fresh.signature = "NEW_ONE";
    fresh.asmText = "newone";
    fresh.throughput = 1.0;
    after.rows.push_back(fresh);
    after.rows[1].requiresKernelMode = false; // WBINVD now measured
    after.rows[1].throughput = 2000.0;

    auto diff = diffTables(before, after);
    bool saw_removed = false;
    bool saw_added = false;
    bool saw_status = false;
    for (const auto &entry : diff.entries) {
        saw_removed |= entry.kind == TableDiffEntry::Kind::Removed &&
                       entry.signature == "MOV_M64_R64";
        saw_added |= entry.kind == TableDiffEntry::Kind::Added &&
                     entry.signature == "NEW_ONE";
        saw_status |= entry.kind ==
                          TableDiffEntry::Kind::StatusChanged &&
                      entry.signature == "WBINVD";
    }
    EXPECT_TRUE(saw_removed);
    EXPECT_TRUE(saw_added);
    EXPECT_TRUE(saw_status);
}

TEST(TableDiffing, RepeatedSignaturesMatchByOccurrence)
{
    // The fast and slow LEA forms share one signature; diffing a
    // table against itself must still match (k-th occurrence to k-th
    // occurrence), and a change to the second occurrence only must be
    // detected.
    InstructionTable table;
    table.uarch = "Skylake";
    table.mode = "kernel";
    VariantResult lea;
    lea.signature = "LEA_R64_M64";
    lea.asmText = "lea RAX, [RAX+8]";
    lea.latency = 0.5;
    lea.throughput = 0.5;
    table.rows.push_back(lea);
    lea.asmText = "lea RAX, [RAX+RBX*4+8]";
    lea.latency = 3.0;
    lea.throughput = 1.0;
    table.rows.push_back(lea);

    EXPECT_TRUE(diffTables(table, table).empty());

    auto changed = table;
    changed.rows[1].latency = 5.0;
    auto diff = diffTables(table, changed);
    ASSERT_EQ(diff.entries.size(), 1u);
    EXPECT_EQ(diff.entries[0].kind,
              TableDiffEntry::Kind::LatencyChanged);
}

TEST(TableDiffing, CrossUarchDiffFindsRealDifferences)
{
    // Nehalem has no AVX: those variants appear only in the Skylake
    // table, and ADC latency differs (2 cycles pre-Broadwell).
    Engine engine;
    TableBuildOptions opt;
    opt.jobs = 2;
    auto skylake = buildInstructionTable(engine, opt);
    opt.session.uarch = "Nehalem";
    auto nehalem = buildInstructionTable(engine, opt);

    auto diff = diffTables(skylake.table, nehalem.table);
    ASSERT_FALSE(diff.empty());
    bool saw_removed_avx = false;
    bool saw_adc_latency = false;
    for (const auto &entry : diff.entries) {
        saw_removed_avx |=
            entry.kind == TableDiffEntry::Kind::Removed &&
            entry.signature.find("VADDPS") != std::string::npos;
        saw_adc_latency |=
            entry.kind == TableDiffEntry::Kind::LatencyChanged &&
            entry.signature == "ADC_R64_R64";
    }
    EXPECT_TRUE(saw_removed_avx);
    EXPECT_TRUE(saw_adc_latency);
}

// ------------------------------------------------------------- lookup --

TEST(Table, FindAndErrorCount)
{
    auto table = sampleTable();
    ASSERT_NE(table.find("WBINVD"), nullptr);
    EXPECT_EQ(table.find("WBINVD")->asmText, "wbinvd");
    EXPECT_EQ(table.find("NOT_THERE"), nullptr);
    EXPECT_EQ(table.errorCount(), 1u);
}

TEST(Table, FormatListsEveryRow)
{
    auto table = sampleTable();
    auto text = table.format();
    for (const auto &row : table.rows)
        EXPECT_NE(text.find(row.asmText.substr(0, 10)),
                  std::string::npos)
            << row.asmText;
    EXPECT_NE(text.find("Skylake"), std::string::npos);
}

} // namespace
} // namespace nb::uops
