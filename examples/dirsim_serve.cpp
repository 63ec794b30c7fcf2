/**
 * @file
 * Example: `dirsim_serve` — the sweep daemon, plus a built-in client
 * for every endpoint so scripts (and the end-to-end tests) need no
 * external HTTP tooling.
 *
 * Daemon:
 *   dirsim_serve [--port P] [--queue N] [--jobs N] [--hold]
 *                [--journal DIR]
 *
 * Binds 127.0.0.1 (port 0 = ephemeral; default), prints one
 * "dirsim_serve listening on 127.0.0.1:<port>" line to stdout, and
 * serves until POST /shutdown. Queued runs are served round-robin
 * across `submit --client` identities; runs submitted without one
 * share one identity and start in submission order. --queue bounds
 * the waiting runs (default 8); --jobs sets each run's workers
 * (default DIRSIM_JOBS, else every hardware thread).
 * DIRSIM_CACHE_DIR wires the shared cell cache, so re-submitted
 * sweeps replay instead of re-simulating. --journal enables the
 * persistent run journal: a restarted daemon replays it and lists
 * its predecessors' runs, with in-flight ones marked "interrupted"
 * (docs/journal.md). DIRSIM_LOG_LEVEL / DIRSIM_LOG_FILE control the
 * structured JSONL log (docs/observability.md).
 *
 * Client subcommands (all take --port P):
 *   dirsim_serve submit <spec.json> [--client NAME]   -> prints id
 *   dirsim_serve wait <id>        stream events until the run ends
 *   dirsim_serve get <id> [--out FILE]     fetch results.jsonl
 *   dirsim_serve diff <a> <b>     compare two finished runs
 *   dirsim_serve cancel <id>
 *   dirsim_serve status           GET /status (active run, uptime,
 *                                 queue depth, journal path)
 *   dirsim_serve metrics          GET /metrics (Prometheus text)
 *   dirsim_serve trace <id> [--out FILE]   GET /runs/{id}/trace
 *   dirsim_serve shutdown
 *
 * Exit status: 0 on success (wait: run finished "done"; diff:
 * clean), 1 on failed/cancelled runs, dirty diffs, or HTTP errors,
 * 2 on usage errors.
 */

#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "dirsim/dirsim.hh"

namespace
{

using namespace dirsim;

int
usage()
{
    std::cerr
        << "usage: dirsim_serve [--port P] [--queue N] [--jobs N] "
           "[--hold] [--journal DIR]\n"
           "       dirsim_serve submit <spec.json> --port P "
           "[--client NAME]\n"
           "       dirsim_serve wait <id> --port P\n"
           "       dirsim_serve get <id> --port P [--out FILE]\n"
           "       dirsim_serve diff <a> <b> --port P\n"
           "       dirsim_serve cancel <id> --port P\n"
           "       dirsim_serve status --port P\n"
           "       dirsim_serve metrics --port P\n"
           "       dirsim_serve trace <id> --port P [--out FILE]\n"
           "       dirsim_serve shutdown --port P\n";
    return 2;
}

/** Flags shared by the client subcommands. */
struct ClientArgs
{
    std::vector<std::string> positional;
    std::uint16_t port = 0;
    std::string client;
    std::string out;
};

ClientArgs
parseClientArgs(const std::vector<std::string> &args)
{
    ClientArgs parsed;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto next = [&]() -> const std::string & {
            fatalIf(i + 1 >= args.size(), "option ", arg,
                    " needs a value");
            return args[++i];
        };
        if (arg == "--port") {
            parsed.port = static_cast<std::uint16_t>(
                parseDecimal(next(), "--port", 65535));
        } else if (arg == "--client") {
            parsed.client = next();
        } else if (arg == "--out") {
            parsed.out = next();
        } else if (!arg.empty() && arg[0] == '-') {
            fatal("unknown option '", arg, "'");
        } else {
            parsed.positional.push_back(arg);
        }
    }
    fatalIf(parsed.port == 0,
            "--port is required (the daemon prints its port at "
            "startup)");
    return parsed;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    fatalIf(!in, "cannot open spec file '", path, "'");
    std::ostringstream body;
    body << in.rdbuf();
    return body.str();
}

/** Print an error body's "error" member when present. */
int
reportHttpError(const HttpClientResponse &response)
{
    std::string message = response.body;
    try {
        const JsonValue json = JsonValue::parse(response.body);
        if (const JsonValue *error = json.find("error"))
            message = error->asString();
    } catch (const SimulationError &) {
        // Not JSON; print the raw body.
    }
    std::cerr << "error: HTTP " << response.status << ": " << message
              << '\n';
    return 1;
}

int
submitCommand(const ClientArgs &args)
{
    fatalIf(args.positional.size() != 1,
            "submit takes exactly one <spec.json>");
    std::vector<std::pair<std::string, std::string>> headers;
    if (!args.client.empty())
        headers.emplace_back("X-Dirsim-Client", args.client);
    const HttpClientResponse response =
        httpRequest(args.port, "POST", "/runs",
                    readFile(args.positional[0]), headers);
    if (response.status != 202)
        return reportHttpError(response);
    const JsonValue json = JsonValue::parse(response.body);
    std::cout << json.at("id").asU64() << '\n';
    std::cerr << "queued run " << json.at("id").asU64() << " ("
              << json.at("name").asString() << ", "
              << json.at("cells").asU64() << " cells)\n";
    return 0;
}

int
waitCommand(const ClientArgs &args)
{
    fatalIf(args.positional.size() != 1,
            "wait takes exactly one <id>");
    std::string final_state;
    const int status = httpStreamLines(
        args.port, "/runs/" + args.positional[0] + "/events",
        [&](const std::string &line) {
            std::cout << line << '\n';
            try {
                const JsonValue json = JsonValue::parse(line);
                if (const JsonValue *kind = json.find("kind");
                    kind && kind->asString() == "state")
                    final_state = json.at("state").asString();
            } catch (const SimulationError &) {
                // Tolerate non-JSON lines; keep streaming.
            }
            return true;
        });
    if (status != 200) {
        std::cerr << "error: HTTP " << status << '\n';
        return 1;
    }
    std::cerr << "run " << args.positional[0] << ": "
              << (final_state.empty() ? "stream ended"
                                      : final_state)
              << '\n';
    return final_state == "done" ? 0 : 1;
}

int
getCommand(const ClientArgs &args)
{
    fatalIf(args.positional.size() != 1,
            "get takes exactly one <id>");
    const HttpClientResponse response =
        httpRequest(args.port, "GET",
                    "/runs/" + args.positional[0] + "/artifacts");
    if (response.status != 200)
        return reportHttpError(response);
    if (args.out.empty()) {
        std::cout << response.body;
        return 0;
    }
    std::ofstream out(args.out, std::ios::binary);
    fatalIf(!out, "cannot write '", args.out, "'");
    out << response.body;
    fatalIf(!out.good(), "write to '", args.out, "' failed");
    return 0;
}

int
diffCommand(const ClientArgs &args)
{
    fatalIf(args.positional.size() != 2,
            "diff takes exactly two run ids");
    const HttpClientResponse response = httpRequest(
        args.port, "GET",
        "/runs/" + args.positional[0] + "/diff/"
            + args.positional[1]);
    if (response.status != 200)
        return reportHttpError(response);
    std::cout << response.body << '\n';
    const JsonValue json = JsonValue::parse(response.body);
    return json.at("clean").asBool() ? 0 : 1;
}

int
cancelCommand(const ClientArgs &args)
{
    fatalIf(args.positional.size() != 1,
            "cancel takes exactly one <id>");
    const HttpClientResponse response = httpRequest(
        args.port, "POST",
        "/runs/" + args.positional[0] + "/cancel");
    if (response.status != 200)
        return reportHttpError(response);
    std::cout << response.body << '\n';
    return 0;
}

int
statusCommand(const ClientArgs &args)
{
    const HttpClientResponse response =
        httpRequest(args.port, "GET", "/status");
    if (response.status != 200)
        return reportHttpError(response);
    std::cout << response.body << '\n';
    return 0;
}

int
metricsCommand(const ClientArgs &args)
{
    const HttpClientResponse response =
        httpRequest(args.port, "GET", "/metrics");
    if (response.status != 200)
        return reportHttpError(response);
    std::cout << response.body;
    return 0;
}

int
traceCommand(const ClientArgs &args)
{
    fatalIf(args.positional.size() != 1,
            "trace takes exactly one <id>");
    const HttpClientResponse response =
        httpRequest(args.port, "GET",
                    "/runs/" + args.positional[0] + "/trace");
    if (response.status != 200)
        return reportHttpError(response);
    if (args.out.empty()) {
        std::cout << response.body;
        return 0;
    }
    std::ofstream out(args.out, std::ios::binary);
    fatalIf(!out, "cannot write '", args.out, "'");
    out << response.body;
    fatalIf(!out.good(), "write to '", args.out, "' failed");
    return 0;
}

int
shutdownCommand(const ClientArgs &args)
{
    const HttpClientResponse response =
        httpRequest(args.port, "POST", "/shutdown");
    if (response.status != 200)
        return reportHttpError(response);
    std::cout << response.body << '\n';
    return 0;
}

int
daemonCommand(const std::vector<std::string> &args)
{
    ServeConfig config;
    config.cache = FileCellCache::fromEnvironment();
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto next = [&]() -> const std::string & {
            fatalIf(i + 1 >= args.size(), "option ", arg,
                    " needs a value");
            return args[++i];
        };
        if (arg == "--port") {
            config.port = static_cast<std::uint16_t>(
                parseDecimal(next(), "--port", 65535));
        } else if (arg == "--queue") {
            config.queueCapacity = parseDecimal(next(), "--queue");
        } else if (arg == "--jobs") {
            config.jobs = static_cast<unsigned>(parseDecimal(
                next(), "--jobs", std::numeric_limits<unsigned>::max()));
        } else if (arg == "--hold") {
            config.hold = true;
        } else if (arg == "--journal") {
            config.journalDir = next();
        } else {
            fatal("unknown option '", arg, "'");
        }
    }

    SweepServer server(config);
    server.start();
    // The parseable startup line scripts wait for.
    std::cout << "dirsim_serve listening on 127.0.0.1:"
              << server.port() << std::endl;
    server.waitForShutdown();
    server.stop();
    std::cout << "dirsim_serve stopped\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (!args.empty() && !args[0].empty() && args[0][0] != '-') {
            const std::string &command = args[0];
            const std::vector<std::string> rest(args.begin() + 1,
                                                args.end());
            if (command == "submit")
                return submitCommand(parseClientArgs(rest));
            if (command == "wait")
                return waitCommand(parseClientArgs(rest));
            if (command == "get")
                return getCommand(parseClientArgs(rest));
            if (command == "diff")
                return diffCommand(parseClientArgs(rest));
            if (command == "cancel")
                return cancelCommand(parseClientArgs(rest));
            if (command == "status")
                return statusCommand(parseClientArgs(rest));
            if (command == "metrics")
                return metricsCommand(parseClientArgs(rest));
            if (command == "trace")
                return traceCommand(parseClientArgs(rest));
            if (command == "shutdown")
                return shutdownCommand(parseClientArgs(rest));
            return usage();
        }
        return daemonCommand(args);
    } catch (const SimulationError &error) {
        std::cerr << "error: " << error.what() << '\n';
        return 2;
    } catch (const std::exception &error) {
        // A filesystem or system error: a diagnostic, not a crash.
        std::cerr << "error: " << error.what() << '\n';
        return 2;
    }
}
